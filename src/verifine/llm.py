"""Gateway to the chat-completion endpoint.

Three call modes keep experiments reproducible:

- live: call the endpoint, return the response, store nothing;
- record: call the endpoint and append the exchange to a transcript
  cache keyed by a content hash of (stage, model, temperature, prompt);
- replay: serve responses from the cache only, never touching the
  network, and fail loudly on a miss.

The cache file is append-only JSON lines, safe for a single process with
many worker threads (writes are serialised through a lock; the last
record for a key wins on load).

Within one batch, a record run and a live run at temperature 0 ask each
distinct prompt once: the batch's own `ReplyTable` hands later asks
the first ask's reply, so a record run writes each key once.  A live run
above temperature 0 samples every ask.  Record mode never reads its
cache file, so a resumed record run still re-asks the prompts the file
holds.

The HTTP transport uses only the standard library, and loads its
modules (`http.client`, `ssl`, `urllib.request`) on its first
connection, so a replay or a scripted run never loads the network stack.
Each thread keeps one connection alive, to the endpoint it called last,
and the proxy settings come from the `http_proxy`, `https_proxy` and
`no_proxy` environment variables.

The gateway knows no stage's output format: `extract_stage_output`
reads the last fenced block of a reply and hands it to the parser the
calling stage passes in.
"""

import base64
import hashlib
import json
import logging
import os
import string
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar
from urllib.parse import SplitResult, unquote, urlsplit

from .llmtypes import StageKind
from .prompts import TEMPLATES

log = logging.getLogger(__name__)

T = TypeVar("T")

MODES = ("live", "record", "replay")

# The environment variable whose value, when set, is sent as a bearer token.
API_KEY_ENV = "VERIFINE_API_KEY"


class GatewayError(Exception):
    """Base class for gateway failures."""


class HttpError(GatewayError):
    """The endpoint kept failing after all retries (or failed hard)."""

    def __init__(self, detail: str, status: Optional[int] = None):
        self.status = status
        super().__init__(detail)


class _TransientHttpError(HttpError):
    """Retryable: transport trouble or a 429/5xx response."""


def _refused(exc: BaseException) -> bool:
    """Whether `exc` is a refusal that asking again would meet again: a
    4xx response other than 429, which the retry policy does not retry."""
    if not isinstance(exc, HttpError) or exc.status is None:
        return False
    return 400 <= exc.status < 500 and exc.status != 429


class CacheMiss(GatewayError):
    """Replay mode found no transcript for the requested key."""


class TemplateUnbound(GatewayError):
    """A template placeholder was missing from the bindings."""

    def __init__(self, stage: StageKind, names: Sequence[str]):
        self.stage = stage
        self.names = tuple(names)
        super().__init__(
            "stage %s is missing bindings: %s" % (stage.value, ", ".join(names))
        )


class MalformedStageOutput(GatewayError):
    """A stage response did not follow its output contract."""

    def __init__(self, stage: StageKind, reason: str):
        self.stage = stage
        self.reason = reason
        super().__init__("stage %s failed: %s" % (stage.value, reason))


@dataclass(frozen=True)
class LLMConfig:
    endpoint: str
    model_name: str
    temperature: float = 0.0
    max_tokens: int = 2048
    per_stage_overrides: Mapping[StageKind, str] = field(default_factory=dict)
    retry_attempts: int = 3
    backoff_base_s: float = 1.0
    http_timeout_s: float = 120.0

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be within [0, 2]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.retry_attempts < 0:
            raise ValueError("retry_attempts must be >= 0")
        if not self.backoff_base_s >= 0:
            raise ValueError("backoff_base_s must be >= 0")
        if not self.http_timeout_s > 0:
            raise ValueError("http_timeout_s must be > 0")
        object.__setattr__(
            self, "per_stage_overrides", dict(self.per_stage_overrides)
        )

    def model_for(self, stage: StageKind) -> str:
        return self.per_stage_overrides.get(stage, self.model_name)


@dataclass(frozen=True)
class Transcript:
    key: str
    prompt: str
    response: str
    timestamp: str


class TranscriptCache:
    """Append-only JSONL store of prompt/response exchanges.

    Each line holds the whole exchange; memory holds only the response
    of each key, the one thing a replay reads back.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._responses: Dict[str, str] = {}
        # Byte offset of a torn final line, cut off before the next append.
        self._torn_at: Optional[int] = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        # A record run killed mid-append leaves a torn last line; a corrupt
        # line anywhere else is an error.
        corrupt: Optional[Tuple[int, ValueError]] = None
        offset = 0
        with open(self.path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                if corrupt is not None:
                    raise corrupt[1]
                try:
                    record = json.loads(line.decode("utf-8"))
                    if not (
                        isinstance(record, dict)
                        and isinstance(record.get("key"), str)
                        and isinstance(record.get("response"), str)
                    ):
                        raise ValueError("not an object with string key and response")
                except ValueError as exc:
                    error = "%s, line %d: %s" % (self.path, line_no, exc)
                    corrupt = (start, ValueError(error))
                    continue
                self._responses[record["key"]] = record["response"]
        if corrupt is not None:
            log.warning("transcript cache %s: skipping torn final line", self.path)
            self._torn_at = corrupt[0]

    def __len__(self) -> int:
        return len(self._responses)

    def get(self, key: str) -> Optional[str]:
        """The recorded response for `key`, or None."""
        return self._responses.get(key)

    def put(self, entry: Transcript):
        with self._lock:
            self._responses[entry.key] = entry.response
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                    self._torn_at = None
                fh.write(
                    json.dumps(
                        {
                            "key": entry.key,
                            "prompt": entry.prompt,
                            "response": entry.response,
                            "timestamp": entry.timestamp,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )


# The most replies a `ReplyTable` keeps at once.
REPLY_TABLE_SIZE = 1024


def prompt_key(stage: StageKind, bindings: Mapping[str, str]) -> tuple:
    """A prompt's identity in one run: its stage and its sorted bindings."""
    return (stage, tuple(sorted(bindings.items())))


class ReplyTable:
    """Raw model replies by (stage, bindings), shared by the problems of
    one batch, so each distinct prompt reaches the model once.

    The first ask of a prompt makes its call on its own thread, and a
    concurrent ask of it waits for that running call, never for a queued
    one.  A call that raises reaches every ask waiting on it.  A refusal
    the retry policy does not retry (an HttpError with a 4xx status
    other than 429) is kept like a reply, so a later ask re-raises it
    without calling the endpoint.  Any other error keeps nothing, so
    after a call that gave up on a 429, a 5xx or a transport failure the
    next ask calls again.  The table holds at most REPLY_TABLE_SIZE
    entries and drops the oldest settled one first; when every entry is
    still in flight, a new prompt is asked without the table.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._slots: Dict[tuple, Future] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def reply(
        self, stage: StageKind, bindings: Mapping[str, str], call: Callable[[], str]
    ) -> str:
        """The reply to the prompt of (stage, bindings): `call()`'s, made
        here or by an earlier ask of it in the batch."""
        key = prompt_key(stage, bindings)
        with self._lock:
            slot = self._slots.get(key)
            owner = slot is None and self._make_room()
            if owner:
                slot = self._slots[key] = Future()
        if slot is None:
            return call()
        if not owner:
            return slot.result()
        try:
            raw = call()
        except BaseException as exc:
            if not _refused(exc):
                with self._lock:
                    if self._slots.get(key) is slot:
                        del self._slots[key]
            slot.set_exception(exc)
            raise
        slot.set_result(raw)
        return raw

    def _make_room(self) -> bool:
        if len(self._slots) < REPLY_TABLE_SIZE:
            return True
        for key, slot in self._slots.items():
            if slot.done():
                del self._slots[key]
                return True
        return False


def transcript_key(
    stage: StageKind, prompt: str, model: str, temperature: float
) -> str:
    payload = "\x1f".join([stage.value, model, "%.6f" % temperature, prompt])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def render_prompt(stage: StageKind, bindings: Mapping[str, str]) -> str:
    """Fill the stage template; unbound placeholders raise TemplateUnbound."""
    template = TEMPLATES[stage]
    try:
        return template.format_map(bindings)
    except KeyError:
        # Only a failed fill pays for naming every unbound placeholder.
        names = {name for _, name, _, _ in string.Formatter().parse(template) if name}
        raise TemplateUnbound(stage, sorted(names.difference(bindings))) from None


# ---------------------------------------------------------------------------
# Transport

Transport = Callable[[dict], str]


class _Connection:
    """One thread's open connection and the (scheme, host, port, proxy)
    it serves.  A call to another endpoint replaces it, so a thread that
    outlives a run keeps no connection to that run's endpoint once it
    calls another; it is closed when the thread ends and drops it."""

    def __init__(self):
        self.key: Optional[tuple] = None
        self.conn: Optional["http.client.HTTPConnection"] = None

    def __del__(self):
        if self.conn is not None:
            self.conn.close()


class _KeptAlive(threading.local):
    def __init__(self):
        self.connection = _Connection()


_kept_alive = _KeptAlive()


def _proxy_for(url: SplitResult) -> Optional[SplitResult]:
    """The environment's proxy for `url`, or None to connect directly."""
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.hostname):
        return None
    if "://" not in proxy:
        proxy = "http://" + proxy
    return urlsplit(proxy)


def _proxy_headers(proxy: SplitResult) -> Dict[str, str]:
    if proxy.username is None:
        return {}
    credentials = "%s:%s" % (unquote(proxy.username), unquote(proxy.password or ""))
    token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
    return {"Proxy-Authorization": "Basic " + token}


def _connect(
    url: SplitResult, proxy: Optional[SplitResult]
) -> "http.client.HTTPConnection":
    """An unopened connection to the endpoint, or to its proxy: plain
    HTTP goes to the proxy as is, HTTPS through a CONNECT tunnel."""
    import http.client
    import ssl

    if url.scheme == "https":
        context = ssl.create_default_context()
        if proxy is None:
            return http.client.HTTPSConnection(url.hostname, url.port, context=context)
        conn = http.client.HTTPSConnection(
            proxy.hostname, proxy.port or 80, context=context
        )
        conn.set_tunnel(url.hostname, url.port, _proxy_headers(proxy))
        return conn
    if proxy is None:
        return http.client.HTTPConnection(url.hostname, url.port)
    return http.client.HTTPConnection(proxy.hostname, proxy.port or 80)


def _post(
    url: SplitResult, body: bytes, headers: Dict[str, str], timeout: float
) -> Tuple[int, bytes]:
    """POST over this thread's kept-alive connection to the endpoint;
    returns the status and the whole body."""
    if url.scheme not in ("http", "https") or not url.hostname:
        raise HttpError("not an http(s) endpoint: %s" % url.geturl())
    proxy = _proxy_for(url)
    target = url.path or "/"
    if url.query:
        target += "?" + url.query
    if proxy is not None and url.scheme == "http":
        # A plain HTTP proxy takes the absolute URL as the request target.
        target = "http://%s%s" % (url.netloc, target)
        headers = dict(headers, **_proxy_headers(proxy))
    key = (url.scheme, url.hostname, url.port, proxy)
    kept = _kept_alive.connection
    if kept.key != key:
        if kept.conn is not None:
            kept.conn.close()
        kept.key, kept.conn = key, _connect(url, proxy)
    conn = kept.conn
    reused = conn.sock is not None
    conn.timeout = timeout
    if reused:
        conn.sock.settimeout(timeout)
    try:
        try:
            conn.request("POST", target, body, headers)
            response = conn.getresponse()
        except ConnectionError:
            if not reused:
                raise
            # The server closed the connection while it sat idle, before
            # any byte of a response: send once more on a fresh one.
            conn.close()
            conn.request("POST", target, body, headers)
            response = conn.getresponse()
        return response.status, response.read()
    except BaseException:
        # An exchange cut short leaves the connection in an unknown state.
        conn.close()
        raise


def http_transport(request: dict) -> str:
    """POST a chat-completion request; returns the message content."""
    import http.client

    headers = {"Content-Type": "application/json"}
    if request.get("api_key"):
        headers["Authorization"] = "Bearer %s" % request["api_key"]
    body = {
        "model": request["model"],
        "messages": [{"role": "user", "content": request["prompt"]}],
        "temperature": request["temperature"],
        "max_tokens": request["max_tokens"],
    }
    url = urlsplit(request["endpoint"])
    try:
        status, data = _post(
            url, json.dumps(body).encode("utf-8"), headers, request["http_timeout"]
        )
    except (OSError, http.client.HTTPException) as exc:
        raise _TransientHttpError("transport failure: %s" % exc)
    if status == 429 or status >= 500:
        raise _TransientHttpError("endpoint returned %d" % status, status)
    if status != 200:
        text = data.decode("utf-8", "replace")
        raise HttpError("endpoint returned %d: %s" % (status, text[:200]), status)
    try:
        payload = json.loads(data)
        return payload["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise HttpError("unexpected response shape: %s" % exc)


def _call_with_retries(transport: Transport, request: dict, cfg: LLMConfig) -> str:
    """One initial call plus up to cfg.retry_attempts retries with backoff."""
    delay = cfg.backoff_base_s
    last: Optional[HttpError] = None
    for attempt in range(cfg.retry_attempts + 1):
        try:
            return transport(request)
        except _TransientHttpError as exc:
            last = exc
            if attempt == cfg.retry_attempts:
                break
            log.warning(
                "stage %s attempt %d failed (%s); backing off %.2fs",
                request.get("stage"),
                attempt + 1,
                exc,
                delay,
            )
            time.sleep(delay)
            delay *= 2
    raise HttpError(
        "gave up after %d attempts: %s" % (cfg.retry_attempts + 1, last),
        getattr(last, "status", None),
    )


def check_mode(mode: str, cache: Optional[TranscriptCache]) -> None:
    """Refuse a mode that cannot run: an unknown one, or record or replay
    without a transcript cache."""
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    if mode != "live" and cache is None:
        raise ValueError("%s mode requires a transcript cache" % mode)


def complete(
    stage: StageKind,
    bindings: Mapping[str, str],
    cfg: LLMConfig,
    mode: str = "live",
    cache: Optional[TranscriptCache] = None,
    transport: Optional[Transport] = None,
) -> str:
    """Run one prompt stage and return the raw model response; `mode`
    and `cache` must pass `check_mode`."""
    check_mode(mode, cache)
    prompt = render_prompt(stage, bindings)
    model = cfg.model_for(stage)
    key = transcript_key(stage, prompt, model, cfg.temperature)
    if mode == "replay":
        response = cache.get(key)
        if response is None:
            raise CacheMiss(
                "no transcript for stage %s (key %s)" % (stage.value, key[:12])
            )
        return response
    request = {
        "stage": stage.value,
        "endpoint": cfg.endpoint,
        "model": model,
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
        "prompt": prompt,
        "http_timeout": cfg.http_timeout_s,
        "api_key": os.environ.get(API_KEY_ENV, ""),
    }
    response = _call_with_retries(transport or http_transport, request, cfg)
    if mode == "record":
        cache.put(
            Transcript(
                key,
                prompt,
                response,
                datetime.now(timezone.utc).isoformat(),
            )
        )
    return response


# ---------------------------------------------------------------------------
# Stage output extraction

def last_fenced_block(raw: str) -> Optional[str]:
    """Content of the last ``` fenced block, or None when there is none."""
    lines = raw.split("\n")
    blocks: List[Tuple[int, int]] = []
    open_at: Optional[int] = None
    for idx, line in enumerate(lines):
        if line.strip().startswith("```"):
            if open_at is None:
                open_at = idx
            else:
                blocks.append((open_at, idx))
                open_at = None
    if not blocks:
        return None
    start, end = blocks[-1]
    return "\n".join(lines[start + 1 : end])


def extract_stage_output(stage: StageKind, raw: str, parse: Callable[[str], T]) -> T:
    """Apply the stage's `parse` to the stripped last fenced block.

    Total over arbitrary text: the only exception this ever raises is
    MalformedStageOutput, whatever `parse` raises.
    """
    try:
        block = last_fenced_block(raw)
        if block is None:
            raise ValueError("no fenced code block in response")
        return parse(block.strip())
    except Exception as exc:
        raise MalformedStageOutput(stage, str(exc))

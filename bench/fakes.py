"""Loopback stand-ins for a chat-completions endpoint and an Isabelle server.

Both serve the scripted model and the ground oracle of one plan, with
added, seeded latency, so a live-mode run waits the way it would against
real services without any network.  They only shape latency: the
numbers they produce are not measurements of a real model or prover.

Every reply goes out in one write, and accepted sockets set TCP_NODELAY,
so a client never stalls on delayed ACKs and the run measures the
program rather than the stand-ins.  Each server counts accepted
connections and commands by name.

Run as a helper process:

    python3 bench/fakes.py --plan plan.json

It prints one JSON line with both ports once it listens, answers a
`stats` line on stdin with one JSON line of counters, and shuts down at
end of input.
"""

import argparse
import hashlib
import json
import os
import random
import socket
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from verifine.logic import sanitize_name  # noqa: E402
from verifine.prover import OracleSession  # noqa: E402
from verifine.theory import line_span, parse_theory  # noqa: E402

from workloads import ScriptedModel, theory_sentences  # noqa: E402

# The shape of the services: an LLM call several times cheaper than a
# prover session start, a check in between.
LLM_LATENCY_S = 0.010
LLM_JITTER_S = 0.002
RATE_429 = 0.03          # share of prompts refused once, on first attempt
SESSION_START_S = 0.050
CHECK_S = 0.010
PASSWORD = "bench"
DOMAIN_BOUND = 3


class Counters:
    """Thread-safe named counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self.values: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.values)


def _nodelay(sock: socket.socket) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# ---------------------------------------------------------------------------
# Chat-completions endpoint


class ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "ChatServer"

    def setup(self):
        super().setup()
        _nodelay(self.connection)
        self.server.counters.add("connections")

    def log_message(self, format, *args):  # noqa: A002 - signature is fixed
        pass

    def _reply(self, status: str, body: bytes) -> None:
        head = (
            "HTTP/1.1 %s\r\nContent-Type: application/json\r\n"
            "Content-Length: %d\r\n\r\n" % (status, len(body))
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length))
        prompt = request["messages"][0]["content"]
        srv = self.server
        srv.counters.add("requests")
        time.sleep(srv.latency())
        if srv.rate_limit(prompt):
            srv.counters.add("rate_limited")
            self._reply("429 Too Many Requests", b'{"error": "rate limited"}')
            return
        try:
            content = srv.model.answer_prompt(prompt)
        except (KeyError, AttributeError) as exc:
            srv.counters.add("unanswerable")
            self._reply("400 Bad Request", json.dumps({"error": str(exc)}).encode())
            return
        srv.counters.add("ok")
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        self._reply("200 OK", json.dumps(body).encode("utf-8"))


class ChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, model: ScriptedModel, seed: int):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.model = model
        self.counters = Counters()
        self._seed = seed
        self._rng = random.Random("chat:%d" % seed)
        self._lock = threading.Lock()
        self._owed: Dict[str, bool] = {}

    def latency(self) -> float:
        with self._lock:
            return LLM_LATENCY_S + self._rng.uniform(0.0, LLM_JITTER_S)

    def rate_limit(self, prompt: str) -> bool:
        """A seeded share of prompts is refused on every other attempt,
        so the first attempt fails and the retry succeeds."""
        digest = hashlib.sha256(("%d\x1f%s" % (self._seed, prompt)).encode()).digest()
        if int.from_bytes(digest[:4], "big") >= RATE_429 * 2 ** 32:
            return False
        with self._lock:
            refuse = not self._owed.get(prompt, False)
            self._owed[prompt] = refuse
        return refuse


# ---------------------------------------------------------------------------
# Isabelle server


def _send(wfile, *messages: str) -> None:
    wfile.write("".join(m + "\n" for m in messages).encode("utf-8"))


class IsabelleHandler(socketserver.StreamRequestHandler):
    server: "IsabelleFake"

    def setup(self):
        super().setup()
        _nodelay(self.connection)
        self.server.counters.add("connections")

    def handle(self):
        srv = self.server
        if self.rfile.readline().decode("utf-8").rstrip("\n") != PASSWORD:
            _send(self.wfile, 'ERROR "bad password"')
            return
        _send(self.wfile, 'OK {"isabelle_name":"fake"}')
        checks = 0
        tasks = 0
        while True:
            raw = self.rfile.readline()
            if not raw:
                return
            name, _, rest = raw.decode("utf-8").rstrip("\n").partition(" ")
            args = json.loads(rest) if rest.strip() else {}
            srv.counters.add("cmd." + name)
            tasks += 1
            task = "task-%d" % tasks
            ok = "OK %s" % json.dumps({"task": task})
            if name == "session_build":
                _send(self.wfile, ok, "FINISHED %s" % json.dumps({"task": task, "ok": True}))
            elif name == "session_start":
                _send(self.wfile, ok)
                time.sleep(SESSION_START_S)
                payload = {"task": task, "session_id": "fake-%d" % id(self)}
                _send(self.wfile, "FINISHED %s" % json.dumps(payload))
            elif name == "use_theories":
                _send(self.wfile, ok)
                checks += 1
                payload = srv.check(args, first=(checks == 1))
                payload["task"] = task
                time.sleep(CHECK_S)
                _send(self.wfile, "FINISHED %s" % json.dumps(payload))
            elif name == "session_stop":
                _send(self.wfile, ok, "FINISHED %s" % json.dumps({"task": task, "ok": True}))
            else:
                _send(self.wfile, 'ERROR "unknown command"')


class IsabelleFake(socketserver.ThreadingTCPServer):
    """Answers use_theories with the ground oracle's verdict on the
    submitted file.  The first proofless check on a connection of a
    problem listed for injection, in its first round, gets a spurious
    inner syntax error, so the client's syntax-repair loop runs."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, plan: dict):
        super().__init__(("127.0.0.1", 0), IsabelleHandler)
        self.counters = Counters()
        inject = set(plan["inject_syntax"])
        self._inject = {
            sanitize_name(p["id"]): tuple(p["explanation"])
            for p in plan["problems"]
            if sanitize_name(p["id"]) in inject
        }

    def check(self, args: dict, first: bool) -> dict:
        name = args["theories"][0]
        with open(os.path.join(args["master_dir"], name + ".thy"), encoding="utf-8") as fh:
            text = fh.read()
        doc = parse_theory(text)
        round0 = self._inject.get(name)
        if first and round0 is not None and not doc.proof and theory_sentences(text) == round0:
            self.counters.add("injected")
            return self._injected(text)
        report = OracleSession(DOMAIN_BOUND).check_document(doc)
        if report.status == "valid":
            return {"ok": True, "nodes": [{"messages": []}]}
        messages = []
        for m in report.messages:
            entry = {"kind": m.severity, "message": m.text}
            if m.span is not None:
                entry["pos"] = {"line": m.span.line, "offset": m.span.start_offset,
                                "end_offset": m.span.end_offset}
            messages.append(entry)
        return {"ok": False, "nodes": [{"messages": messages}]}

    @staticmethod
    def _injected(text: str) -> dict:
        lines = text.split("\n")
        line_no = next(
            (i for i, line in enumerate(lines, 1) if line.startswith("  explanation_1:")), 1)
        start, end = line_span(text, line_no)
        message = {
            "kind": "error",
            "message": "Inner syntax error: unexpected token in axiom explanation_1",
            "pos": {"line": line_no, "offset": start, "end_offset": end},
        }
        return {"ok": False, "nodes": [{"messages": [message]}]}


# ---------------------------------------------------------------------------


class Fakes:
    """Both servers, each on its own accept thread."""

    def __init__(self, plan: dict):
        self.chat = ChatServer(ScriptedModel(plan), plan["seed"])
        self.prover = IsabelleFake(plan)
        self._threads = [
            threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05},
                             daemon=True)
            for srv in (self.chat, self.prover)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def ports(self) -> dict:
        return {"llm_port": self.chat.server_address[1],
                "prover_port": self.prover.server_address[1],
                "password": PASSWORD}

    def stats(self) -> dict:
        return {"llm": self.chat.counters.snapshot(),
                "prover": self.prover.counters.snapshot()}

    def close(self) -> None:
        for srv in (self.chat, self.prover):
            srv.shutdown()
            srv.server_close()
        for thread in self._threads:
            thread.join(timeout=5)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--plan", required=True)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    fakes = Fakes(plan)
    try:
        print(json.dumps(fakes.ports), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(fakes.stats()), flush=True)
    finally:
        fakes.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

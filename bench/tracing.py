"""Spans and counters recorded around the calls into each layer.

Nothing inside the package changes: a traced run replaces the attribute
a layer is called through, in the namespace that calls it (for example
`verifine.pipeline.check_theory`), with a wrapper that records a span,
and puts every original back afterwards.

A span is (name, start, end, parent, problem id, attribute).  The parent
comes from a thread-local stack, so spans nest per worker thread; the
problem id is the one whose `run_refiner` call the thread is inside.
Spans stay in memory until the run ends.  A layer's self time is its
span time minus the part of it that child spans cover.
"""

import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import verifine.batch
import verifine.llm
import verifine.pipeline
import verifine.prover.isabelle
import verifine.prover.oracle
import verifine.theory

NAME, START, END, PARENT, PROBLEM, ATTR = range(6)

# The six stages the loop calls today.
STAGES = ("detect_events", "sentence_to_logic", "refine_syntax",
          "rough_inference", "construct_proof", "refine_explanation")


class Patches:
    """Attribute replacements, undone in reverse order and checked."""

    def __init__(self):
        self.saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back; raise if any attribute then holds
        something else."""
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        moved = ["%s.%s" % (getattr(o, "__name__", o), a)
                 for o, a, original in self.saved if vars(o)[a] is not original]
        if moved:
            raise RuntimeError("wrapped attributes not restored: %s" % ", ".join(moved))


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attr=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, time.perf_counter(), None, parent,
                getattr(self._local, "problem", None), attr]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() != index:
            pass

    def spanned(self, name: str, fn: Callable, attr: Optional[Callable] = None,
                after: Optional[Callable] = None) -> Callable:
        """Wrap `fn` in a span; `attr(args)` labels it, and
        `after(args, result)` records counts outside the span."""

        def wrapper(*args, **kwargs):
            index = self.begin(name, attr(args) if attr else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Self time


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


# ---------------------------------------------------------------------------
# Instrumentation


class _JsonProxy:
    """Stands in for the `json` module in one namespace, timing `dump`."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


def _stage(args) -> str:
    return args[0].value


class Instrumentation:
    """Installs the span wrappers for one traced section."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches = Patches()

    def install(self) -> None:
        t = self.tracer
        render_original = verifine.theory.render_theory
        checked_docs = threading.local()

        def problem_span(fn):
            def wrapper(problem, cfg):
                t._local.problem = problem.id
                checked_docs.seen = []
                index = t.begin("problem")
                try:
                    return fn(problem, cfg)
                finally:
                    t.end(index)
                    t._local.problem = None
            return wrapper

        def after_check(args, report):
            doc = args[1]
            seen = checked_docs.seen
            if doc in seen:
                t.count("prover.repeat_checks")
            else:
                seen.append(doc)
            if report.status == "valid":
                t.count("prover.checks_valid")

        def after_syntax(args, outcome):
            t.count("pipeline.syntax_repairs", outcome.iterations_used)
            if outcome.errors_before:
                t.count("pipeline.syntax_loops_with_errors")
                if not outcome.errors_after:
                    t.count("pipeline.syntax_loops_fixed")

        def counting(fn, on_result):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper

        def transport(fn):
            def wrapper(request):
                index = t.begin("llm.transport")
                try:
                    return fn(request)
                except verifine.llm.HttpError:
                    t.count("llm.retries")
                    raise
                finally:
                    t.end(index)
            return wrapper

        def cache_get(self_, key):
            entry = cache_get_original(self_, key)
            t.count("llm.cache_hits" if entry is not None else "llm.cache_misses")
            return entry

        def cache_put(self_, entry):
            t.count("llm.cache_writes")
            return cache_put_original(self_, entry)

        cache_get_original = verifine.llm.TranscriptCache.get
        cache_put_original = verifine.llm.TranscriptCache.put
        oracle_close = verifine.prover.oracle.OracleSession.close
        isabelle_close = verifine.prover.isabelle.IsabelleSession.close
        P, L, B = verifine.pipeline, verifine.llm, verifine.batch
        wraps = [
            (B, "run_refiner", problem_span(B.run_refiner)),
            (B, "trace_to_dict", t.spanned("batch.trace_to_dict", B.trace_to_dict)),
            (B, "json", _JsonProxy(B.json, t.spanned("batch.json_dump", B.json.dump))),
            (P, "complete", t.spanned("llm.complete", P.complete, attr=_stage)),
            (P, "extract_stage_output", t.spanned("llm.extract", P.extract_stage_output)),
            (L, "http_transport", transport(L.http_transport)),
            (L, "render_prompt", counting(
                L.render_prompt, lambda p: t.count("llm.prompt_chars", len(p)))),
            (L.TranscriptCache, "get", cache_get),
            (L.TranscriptCache, "put", cache_put),
            (P, "parse_formula", t.spanned("logic.parse", P.parse_formula)),
            (verifine.theory, "render_theory", t.spanned("theory.render", render_original)),
            (P, "parse_theory", t.spanned("theory.parse", P.parse_theory)),
            # A round is one _run_iteration call, so rounds stay one
            # span each however sessions are opened and shared.
            (P, "_run_iteration", t.spanned("pipeline.round", P._run_iteration)),
            (P, "start_session", t.spanned("prover.session_start", P.start_session)),
            (verifine.prover.oracle.OracleSession, "close",
             t.spanned("prover.session_close", oracle_close)),
            (verifine.prover.isabelle.IsabelleSession, "close",
             t.spanned("prover.session_close", isabelle_close)),
            (P, "check_theory", t.spanned("prover.check", P.check_theory, after=after_check)),
            (verifine.prover.oracle, "entails",
             t.spanned("prover.entails", verifine.prover.oracle.entails)),
            (P, "formalise", t.spanned("pipeline.formalise", P.formalise)),
            (P, "refine_syntax_loop", t.spanned(
                "pipeline.syntax_loop", P.refine_syntax_loop, after=after_syntax)),
            (P, "infer_and_prove", t.spanned("pipeline.proof", P.infer_and_prove)),
            (P, "refine_explanation", t.spanned("pipeline.refine", P.refine_explanation)),
        ]
        for owner, attr, value in wraps:
            self.patches.set(owner, attr, value)

    def uninstall(self) -> None:
        self.patches.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class RefinerTimer:
    """The one wrapper of an untraced run: times each `run_refiner` call."""

    def __init__(self):
        self.durations: List[float] = []
        self.patches = Patches()

    def __enter__(self):
        original = verifine.batch.run_refiner
        durations = self.durations

        def timed(problem, cfg):
            start = time.perf_counter()
            try:
                return original(problem, cfg)
            finally:
                durations.append(time.perf_counter() - start)

        self.patches.set(verifine.batch, "run_refiner", timed)
        return self

    def __exit__(self, *exc):
        self.patches.restore()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer: Tracer, problems: int, workers: int,
                  batch_wall_s: float) -> Dict[str, float]:
    """Per-problem totals of every layer, from one traced section."""
    spans = tracer.spans
    own = self_times(spans)
    total: Dict[str, float] = {}
    mine: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, self_s in zip(spans, own):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        mine[name] = mine.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if name == "llm.complete":
            key = "llm.calls." + span[ATTR]
            calls[key] = calls.get(key, 0) + 1
    rounds = round_durations(tracer)
    in_problem_renders = sum(
        1 for s in spans if s[NAME] == "theory.render" and s[PROBLEM] is not None)
    c = tracer.counts
    n = float(problems)
    checks = calls.get("prover.check", 0)
    loops_with_errors = c.get("pipeline.syntax_loops_with_errors", 0)
    m = {
        "llm.calls": calls.get("llm.complete", 0) / n,
        "llm.self_s": mine.get("llm.complete", 0.0) / n,
        "llm.extract_s": total.get("llm.extract", 0.0) / n,
        "llm.transport_s": total.get("llm.transport", 0.0) / n,
        "llm.attempts": calls.get("llm.transport", 0) / n,
        "llm.retries": c.get("llm.retries", 0) / n,
        "llm.cache_hits": c.get("llm.cache_hits", 0) / n,
        "llm.cache_misses": c.get("llm.cache_misses", 0) / n,
        "llm.cache_writes": c.get("llm.cache_writes", 0) / n,
        "llm.prompt_kchars": c.get("llm.prompt_chars", 0) / 1000.0 / n,
        "logic.parse_calls": calls.get("logic.parse", 0) / n,
        "logic.parse_s": total.get("logic.parse", 0.0) / n,
        "theory.render_calls": calls.get("theory.render", 0) / n,
        "theory.render_s": total.get("theory.render", 0.0) / n,
        "theory.renders_per_round": in_problem_renders / max(len(rounds), 1),
        "theory.parse_calls": calls.get("theory.parse", 0) / n,
        "theory.parse_s": total.get("theory.parse", 0.0) / n,
        "prover.sessions": calls.get("prover.session_start", 0) / n,
        "prover.session_start_s": total.get("prover.session_start", 0.0) / n,
        "prover.session_close_s": total.get("prover.session_close", 0.0) / n,
        "prover.checks": checks / n,
        "prover.check_s": total.get("prover.check", 0.0) / n,
        "prover.check_valid_frac": c.get("prover.checks_valid", 0) / max(checks, 1),
        "prover.repeat_checks": c.get("prover.repeat_checks", 0) / n,
        "prover.entails_calls": calls.get("prover.entails", 0) / n,
        "prover.entails_s": total.get("prover.entails", 0.0) / n,
        "pipeline.rounds": len(rounds) / n,
        "pipeline.round_p50_s": percentile(rounds, 50),
        "pipeline.round_p90_s": percentile(rounds, 90),
        "pipeline.formalise_self_s": mine.get("pipeline.formalise", 0.0) / n,
        "pipeline.syntax_loop_self_s": mine.get("pipeline.syntax_loop", 0.0) / n,
        "pipeline.proof_self_s": mine.get("pipeline.proof", 0.0) / n,
        "pipeline.refine_self_s": mine.get("pipeline.refine", 0.0) / n,
        "pipeline.syntax_repairs": c.get("pipeline.syntax_repairs", 0) / n,
        "pipeline.syntax_fixed_frac": (
            c.get("pipeline.syntax_loops_fixed", 0) / loops_with_errors
            if loops_with_errors else 0.0),
        "batch.worker_busy_frac": total.get("problem", 0.0) / (workers * batch_wall_s),
        "batch.trace_encode_s": (total.get("batch.trace_to_dict", 0.0)
                                 + total.get("batch.json_dump", 0.0)) / n,
        "report.read_s": total.get("report.read", 0.0) / n,
        "report.aggregate_s": total.get("report.aggregate", 0.0) / n,
    }
    for stage in STAGES:
        m["llm.calls." + stage] = calls.get("llm.calls." + stage, 0) / n
    return m


def round_durations(tracer: Tracer) -> List[float]:
    return [s[END] - s[START] for s in tracer.spans if s[NAME] == "pipeline.round"]


def totals(tracer: Tracer) -> Dict[str, int]:
    """Raw counts used to reconcile a traced section with its traces."""
    names: Dict[str, int] = {}
    for span in tracer.spans:
        names[span[NAME]] = names.get(span[NAME], 0) + 1
    return {
        "llm.calls": names.get("llm.complete", 0),
        "prover.checks": names.get("prover.check", 0),
        "pipeline.rounds": names.get("pipeline.round", 0),
        "llm.cache_hits": int(tracer.counts.get("llm.cache_hits", 0)),
        "llm.cache_misses": int(tracer.counts.get("llm.cache_misses", 0)),
        "llm.cache_writes": int(tracer.counts.get("llm.cache_writes", 0)),
    }

"""The verify-and-refine loop.

One round is: formalise the problem into a theory, repair blatant syntax
trouble (bounded sub-loop), sketch the argument, construct a linear
proof, and check it.  A failed check yields a feedback bundle (first
error, failed step, axioms that step cited); the explanation is then
filtered to the facts the attempt actually used and rewritten by the
refinement stage.  The initial check plus up to `max_refinement_iterations`
refined re-checks make a trace.

Each stage's reply parser sits beside the stage and returns the value
the loop uses; the gateway turns anything a parser raises into
MalformedStageOutput.  Stage failures never abort a problem: a malformed
stage output consumes the round and the loop moves on with whatever it
has.  A check that times out ends its round with that report.

A round is a small dataflow.  ROUGH_INFERENCE reads only the
explanation, so it starts with the round.  Once DETECT_EVENTS answers,
every sentence not yet formalised gets its SENTENCE_TO_LOGIC call at
once.  Once both the strategy and the formalised theory exist,
CONSTRUCT_PROOF starts on that theory while the syntax sub-loop checks
it; its reply is used only when the sub-loop hands back an equal
theory, and otherwise CONSTRUCT_PROOF is asked again on the repaired
one.  Replies are read in the serial order, and a round drops every
reply the serial loop would not have asked for: the formulas after the
first that fails, the strategy and proof of a round whose formalisation
fails or whose check times out, and the speculative proof of a repaired
theory.  A round ends only once every call it started has settled.
`PipelineContext.start` decides how a call runs: on the module's stage
pool when it waits on the network (live and record mode through the
HTTP transport), and otherwise inline at its first read, so replayed and
scripted runs make exactly the serial loop's calls in its order.

Inside `batch_replies`, which `run_batch` holds, the problems of a
record run or of a live run at temperature 0 share model replies:
`PipelineContext.ask` looks each call up by its stage and bindings, the
first ask of a prompt calls the model, and every later or concurrent ask
of it takes that reply and runs its own parser.  A dropped reply answers
later asks too.  A live run above temperature 0 samples every ask, and
replays, like `run_refiner` outside a batch, make every call.

A problem's rounds share one prover session, closed when the problem
ends.  It is reopened only when a check has left it unusable: a timed-out
Isabelle check kills its session.  An Isabelle session opens on a helper
thread while the round formalises and is joined at the round's first
check, so its start-up overlaps the round's first LLM calls; an oracle
session is a plain object and opens inline.  Under `run_batch` the
Isabelle sessions of all problems attach to one server session (see
`verifine.prover`).  A backend that cannot open a session ends the
problem with a diagnostic on the trace and no recorded round, even when
formalisation failed meanwhile.  So with a dead backend, round 0's
formalisation calls are made before the failure shows.
"""

import contextlib
import enum
import functools
import logging
import re
import sys
import threading
import typing
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .llm import (
    LLMConfig,
    MalformedStageOutput,
    ReplyTable,
    TranscriptCache,
    Transport,
    complete,
    extract_stage_output,
)
from .llmtypes import StageKind
from .logic import (
    ArityConflict,
    Formula,
    LogicError,
    ParseError,
    parse_formula,
    sanitize_name,
)
from .prover import (
    IsabelleServer,
    ProverBackend,
    SessionHandle,
    check_theory,
    checked_timeout,
    start_session,
)
from .prover.messages import (
    CHECK_TIMEOUT_S,
    CheckReport,
    ErrorClass,
    ProverError,
    ProverMessage,
    build_report,
    classify_error,
    locate_failed_step,
    syntax_error_count,
)
from .theory import (
    Axiom,
    MalformedPremise,
    OpenFormula,
    ProofStep,
    TheoremBlock,
    TheoryDoc,
    parse_proof_block,
    parse_theory,
    proof_region,
    proof_step_text,
)

log = logging.getLogger(__name__)

FINAL_STATUSES = ("valid_initially", "refined_valid", "exhausted_invalid")

class FormulaRejected(Exception):
    """A produced formula could not be adopted into the theory."""

    def __init__(self, sentence_id: str, detail: str):
        self.sentence_id = sentence_id
        super().__init__(detail)


@dataclass(frozen=True)
class Fact:
    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("fact id must be non-empty")
        if not self.text.strip():
            raise ValueError("fact text must be non-empty")


@dataclass(frozen=True)
class NLIProblem:
    id: str
    premise_text: Optional[str]
    hypothesis_text: str
    explanation: Tuple[Fact, ...]
    dataset: str = "default"

    def __post_init__(self):
        object.__setattr__(self, "explanation", tuple(self.explanation))
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if not self.hypothesis_text.strip():
            raise ValueError("hypothesis must be non-empty")
        ids = [f.id for f in self.explanation]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate fact ids: %s" % ids)


@dataclass(frozen=True)
class InferenceStrategy:
    narrative: str
    relevant_fact_ids: Tuple[str, ...] = ()
    redundant_fact_ids: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "relevant_fact_ids", tuple(self.relevant_fact_ids))
        object.__setattr__(self, "redundant_fact_ids", tuple(self.redundant_fact_ids))
        overlap = set(self.relevant_fact_ids) & set(self.redundant_fact_ids)
        if overlap:
            raise ValueError("fact ids marked both relevant and redundant: %s" % overlap)


@dataclass(frozen=True)
class FeedbackBundle:
    error_message: str
    failed_step: Optional[ProofStep] = None
    failed_step_index: Optional[int] = None
    strategy: Optional[InferenceStrategy] = None
    relevant_axioms: Tuple[Axiom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "relevant_axioms", tuple(self.relevant_axioms))


@dataclass(frozen=True)
class IterationRecord:
    explanation_before: Tuple[Fact, ...]
    theory: Optional[TheoryDoc]
    syntax_iterations_used: int
    syntax_errors_before: int
    syntax_errors_after: int
    report: CheckReport
    feedback: Optional[FeedbackBundle]
    explanation_after: Tuple[Fact, ...]
    proof_steps_suggested: int = 0
    proof_steps_processed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "explanation_before", tuple(self.explanation_before))
        object.__setattr__(self, "explanation_after", tuple(self.explanation_after))


@dataclass(frozen=True)
class RefinementTrace:
    problem_id: str
    dataset: str
    iterations: Tuple[IterationRecord, ...]
    final_status: str
    total_iterations: int
    diagnostic: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "iterations", tuple(self.iterations))
        if self.final_status not in FINAL_STATUSES:
            raise ValueError("bad final_status: %r" % self.final_status)
        for prev, cur in zip(self.iterations, self.iterations[1:]):
            if prev.explanation_after != cur.explanation_before:
                raise ValueError("iteration explanations do not chain")


@dataclass
class RefinerConfig:
    """How a run asks the model and checks theories.

    Each value holds a `ReplyTable`, not a field, through which the
    problems of a batch run on it share model replies (see
    `batch_replies`).
    """

    llm: LLMConfig
    backend: ProverBackend
    mode: str = "live"
    cache: Optional[TranscriptCache] = None
    transport: Optional[Transport] = None
    max_refinement_iterations: int = 10
    syntax_iterations: int = 3
    timeout_s: float = CHECK_TIMEOUT_S

    def __post_init__(self):
        if self.max_refinement_iterations < 0:
            raise ValueError("max_refinement_iterations must be >= 0")
        if self.syntax_iterations < 0:
            raise ValueError("syntax_iterations must be >= 0")
        checked_timeout(self.timeout_s)
        self.replies = ReplyTable()


@contextlib.contextmanager
def batch_replies(cfg: RefinerConfig) -> typing.Iterator[None]:
    """Share model replies among the problems run on `cfg` inside this
    block, so each distinct prompt is asked once, and empty the table on
    leaving.  A record run and a live run at temperature 0 share; a
    replay reads its cache anyway, and a live run above temperature 0
    samples every ask."""
    if cfg.mode == "replay" or (cfg.mode == "live" and cfg.llm.temperature > 0):
        yield
        return
    cfg.replies.hold()
    try:
        yield
    finally:
        cfg.replies.release()


# Threads that run the stage calls waiting on the network, shared by every
# problem of the process.  The pool sets no cap of its own: it starts a
# thread only when none is idle, so it grows to the most calls in flight
# at once, which the batch's workers and each round's fan-out bound.  A
# task waits only on a call already running on another thread, and an
# idle thread keeps its connection.
_stage_pool = ThreadPoolExecutor(sys.maxsize, thread_name_prefix="verifine-stage")


class _Deferred:
    """A stage call made on the reading thread, at its first `result()`.

    It stands in for the stage pool's `Future`, with the part of that
    interface a round uses.  A call cancelled before it is made is never
    made, and done-callbacks run once it is made.
    """

    def __init__(self, call: Callable):
        self._call: Optional[Callable] = call
        self._callbacks: List[Callable] = []
        self._made = False
        self._value = None
        self._error: Optional[Exception] = None

    def result(self):
        if self._call is not None:
            call, self._call = self._call, None
            try:
                self._value = call()
            except Exception as exc:
                self._error = exc
            self._made = True
            for callback in self._callbacks:
                callback(self)
        if self._error is not None:
            raise self._error
        if not self._made:
            raise CancelledError()
        return self._value

    def done(self) -> bool:
        return self._made

    def exception(self) -> Optional[Exception]:
        return self._error

    def cancel(self) -> bool:
        self._call = None
        return not self._made

    def add_done_callback(self, callback: Callable) -> None:
        if self._made:
            callback(self)
        else:
            self._callbacks.append(callback)


# A started stage call: on the stage pool, or deferred.
_Call = typing.Union[Future, _Deferred]


def _drop(future: _Call) -> None:
    """Discard a call's reply: cancel it if it has not begun, else wait
    for it to settle, so no call outlives the round that started it."""
    if not future.cancel():
        future.exception()


class PipelineContext:
    """Per-problem state: the problem, stage calls and formalisation caches."""

    def __init__(self, cfg: RefinerConfig, problem: NLIProblem):
        self.cfg = cfg
        self.problem = problem
        self.events: Dict[str, List[str]] = {}
        self.formulas: Dict[Tuple[str, str], str] = {}
        self.used_ids: Set[str] = {f.id for f in problem.explanation}
        self._counter = 0
        for fact_id in self.used_ids:
            match = re.fullmatch(r"f(\d+)", fact_id)
            if match:
                self._counter = max(self._counter, int(match.group(1)))

    def ask(self, stage: StageKind, bindings: Mapping[str, str], parse: Callable):
        """One stage call: render, complete, then `parse` the reply's last
        fenced block.  Raises MalformedStageOutput when the reply has no
        usable output.  Inside `batch_replies`, a prompt the batch has
        asked already takes that ask's reply."""
        cfg = self.cfg
        call = functools.partial(
            complete, stage, bindings, cfg.llm, cfg.mode, cfg.cache, cfg.transport
        )
        raw = cfg.replies.reply(stage, bindings, call)
        return extract_stage_output(stage, raw, parse)

    def start(
        self, stage: StageKind, bindings: Mapping[str, str], parse: Callable
    ) -> _Call:
        """Begin one stage call, whose result is `ask`'s value or the
        MalformedStageOutput it raised.  A call that may wait on the
        network (a live or record run through the HTTP transport) runs
        on the stage pool; any other is deferred to its first
        `result()`, so the run makes its calls in the order it reads
        them."""
        cfg = self.cfg
        if cfg.mode != "replay" and cfg.transport is None:
            return _stage_pool.submit(self._attempt, stage, bindings, parse)
        return _Deferred(functools.partial(self._attempt, stage, bindings, parse))

    def _attempt(
        self, stage: StageKind, bindings: Mapping[str, str], parse: Callable
    ):
        try:
            return self.ask(stage, bindings, parse)
        except MalformedStageOutput as exc:
            # Returned, and as a copy never raised: a future keeps its
            # call's outcome, and a traceback's frames reach the future
            # through their callers, which would make the round cyclic
            # garbage.
            return MalformedStageOutput(exc.stage, exc.reason)

    def next_fact_id(self) -> str:
        while True:
            self._counter += 1
            candidate = "f%d" % self._counter
            if candidate not in self.used_ids:
                self.used_ids.add(candidate)
                return candidate


# ---------------------------------------------------------------------------
# Formalisation

_ROLE_PREMISE = "premise"
_ROLE_FACT = "explanation fact"
_ROLE_HYPOTHESIS = "hypothesis"


def _parse_events(block: str) -> Dict[int, List[str]]:
    """`<id>: verb, verb` lines to verbs by the id's sentence number; an
    id without digits names no sentence."""
    verbs_by_index: Dict[int, List[str]] = {}
    for line in block.split("\n"):
        line = line.strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if not sep or not head.strip():
            raise ValueError("expected `<id>: verbs` lines, got %r" % line)
        digits = re.sub(r"\D", "", head)
        if digits:
            verbs_by_index[int(digits)] = rest.replace(",", " ").split()
    return verbs_by_index


def _detect_events(sentences: Sequence[str], ctx: PipelineContext):
    pending = [s for s in sentences if s not in ctx.events]
    if not pending:
        return
    numbered = "\n".join("%d. %s" % (i + 1, s) for i, s in enumerate(pending))
    verbs_by_index = ctx.ask(StageKind.DETECT_EVENTS, {"sentences": numbered}, _parse_events)
    for i, sentence in enumerate(pending):
        ctx.events[sentence] = verbs_by_index.get(i + 1, [])


def _one_line_formula(block: str) -> str:
    if not block:
        raise ValueError("empty formula")
    return " ".join(block.split("\n"))


def _start_formulas(
    keys: Sequence[Tuple[str, str]], ctx: PipelineContext
) -> Dict[Tuple[str, str], _Call]:
    """One SENTENCE_TO_LOGIC call per distinct (role, sentence) key not
    yet formalised, all started at once."""
    calls: Dict[Tuple[str, str], _Call] = {}
    for key in keys:
        if key in ctx.formulas or key in calls:
            continue
        role, sentence = key
        events = ctx.events.get(sentence, [])
        bindings = {
            "sentence": sentence,
            "role": role,
            "events": ", ".join(events) if events else "(none)",
        }
        stage = StageKind.SENTENCE_TO_LOGIC
        calls[key] = ctx.start(stage, bindings, _one_line_formula)
    return calls


def _sentence_formula(
    key: Tuple[str, str], calls: Mapping[Tuple[str, str], _Call], ctx: PipelineContext
) -> str:
    text = ctx.formulas.get(key)
    if text is None:
        text = calls[key].result()
        if isinstance(text, MalformedStageOutput):
            raise text
        ctx.formulas[key] = text
    return text


def _parse_sentence_formula(sentence_id: str, text: str) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise FormulaRejected(
            sentence_id,
            "Inner syntax error in the formula for %s: %s" % (sentence_id, exc),
        )
    except LogicError as exc:
        raise FormulaRejected(
            sentence_id,
            "Type unification failed in the formula for %s: %s" % (sentence_id, exc),
        )


def formalise(
    problem: NLIProblem,
    cfg: RefinerConfig,
    explanation: Optional[Sequence[Fact]] = None,
    ctx: Optional[PipelineContext] = None,
) -> TheoryDoc:
    """Autoformalise a problem into a proofless theory document."""
    if ctx is None:
        ctx = PipelineContext(cfg, problem)
    facts = tuple(explanation if explanation is not None else problem.explanation)

    # (role, sentence) keys with the id a rejected formula is named by,
    # read in this order; the calls after the first failure are dropped.
    named = []
    if problem.premise_text:
        named.append(((_ROLE_PREMISE, problem.premise_text), "premise"))
    named.extend(((_ROLE_FACT, f.text), f.id) for f in facts)
    named.append(((_ROLE_HYPOTHESIS, problem.hypothesis_text), "hypothesis"))
    _detect_events([sentence for (_, sentence), _ in named], ctx)
    calls = _start_formulas([key for key, _ in named], ctx)
    try:
        formulas = [
            _parse_sentence_formula(name, _sentence_formula(key, calls, ctx))
            for key, name in named
        ]
    finally:
        for call in calls.values():
            _drop(call)
    premise_formula = formulas.pop(0) if problem.premise_text else None
    goal = formulas.pop()
    fact_formulas = formulas

    # The building blocks check themselves in this order: open facts,
    # then the premise, then the goal, then arities across formulas.
    try:
        axioms = []
        for k, (fact, formula) in enumerate(zip(facts, fact_formulas), start=1):
            try:
                axioms.append(Axiom("explanation_%d" % k, formula, fact.text))
            except OpenFormula as exc:
                # Named by its fact, which the refinement prompt knows.
                raise OpenFormula(fact.id, exc.names)
        theorem = TheoremBlock(
            premise_formula, goal, problem.premise_text or "", problem.hypothesis_text
        )
        return TheoryDoc(sanitize_name(problem.id), tuple(axioms), theorem)
    except OpenFormula as exc:
        raise FormulaRejected(
            exc.fact_id, "Malformed formula for %s: %s" % (exc.fact_id, exc)
        )
    except MalformedPremise as exc:
        raise FormulaRejected("premise", "Malformed premise: %s" % exc)
    except ArityConflict as exc:
        raise FormulaRejected(exc.name, "Type unification failed: %s" % exc)


# ---------------------------------------------------------------------------
# Syntax repair sub-loop

@dataclass(frozen=True)
class SyntaxLoopOutcome:
    doc: TheoryDoc
    iterations_used: int
    errors_before: int
    errors_after: int
    last_report: CheckReport


def _format_errors(report: CheckReport, doc: TheoryDoc) -> str:
    region = proof_region(doc)
    lines = []
    for message in report.errors():
        cls = classify_error(message, region)
        where = " (line %d)" % message.span.line if message.span else ""
        lines.append("- [%s]%s %s" % (cls.value, where, message.text))
    return "\n".join(lines) if lines else "(none)"


def _repaired_theory(name: str, block: str) -> TheoryDoc:
    # The theory name is part of the problem contract; a repair that
    # rewrote it would break span bookkeeping downstream.
    return replace(parse_theory(block).without_proof(), name=name)


def refine_syntax_loop(
    ctx: PipelineContext, doc: TheoryDoc, handle: SessionHandle
) -> SyntaxLoopOutcome:
    """Check the proofless theory and repair syntax errors, at most
    cfg.syntax_iterations times.  Residual errors are carried forward."""
    cfg = ctx.cfg
    current = doc.without_proof() if doc.proof else doc
    report = check_theory(handle, current, cfg.timeout_s)
    before = syntax_error_count(report, current)
    used = 0
    remaining = before
    parse = functools.partial(_repaired_theory, current.name)
    while remaining > 0 and used < cfg.syntax_iterations:
        bindings = {
            "theory": current.rendered,
            "errors": _format_errors(report, current),
        }
        try:
            current = ctx.ask(StageKind.REFINE_SYNTAX, bindings, parse)
        except MalformedStageOutput as exc:
            log.debug("syntax repair attempt unusable: %s", exc)
        used += 1
        report = check_theory(handle, current, cfg.timeout_s)
        remaining = syntax_error_count(report, current)
    return SyntaxLoopOutcome(current, used, before, remaining, report)


# ---------------------------------------------------------------------------
# Rough inference and proof construction

def _facts_listing(facts: Sequence[Fact]) -> str:
    if not facts:
        return "(none)"
    return "\n".join("%s: %s" % (f.id, f.text) for f in facts)


def _parse_strategy(known_ids: Sequence[str], block: str) -> InferenceStrategy:
    """A sketch, then `relevant:` and `redundant:` id lines.  Ids outside
    `known_ids` are dropped, the rest keep that order, and a fact listed
    as both counts as relevant."""
    narrative: List[str] = []
    listed: Dict[str, Set[str]] = {"relevant": set(), "redundant": set()}
    for line in block.split("\n"):
        stripped = line.strip()
        label, sep, rest = stripped.partition(":")
        if sep and label.lower() in listed:
            ids = [t for t in re.split(r"[,\s]+", rest) if t]
            for token in ids:
                if not re.fullmatch(r"[A-Za-z0-9_]+", token):
                    raise ValueError("not an id: %r" % token)
            listed[label.lower()] = set(ids)
        elif stripped:
            narrative.append(stripped)
    relevant = tuple(i for i in known_ids if i in listed["relevant"])
    redundant = tuple(
        i for i in known_ids if i in listed["redundant"] and i not in relevant
    )
    return InferenceStrategy("\n".join(narrative), relevant, redundant)


def _attach_proof(doc: TheoryDoc, block: str) -> TheoryDoc:
    # Step goal texts arrive normalised by the proof-line parser;
    # with_proof refuses a step that cites an undeclared fact.
    return doc.with_proof(parse_proof_block(block))


class _ProofCalls:
    """A round's ROUGH_INFERENCE call, started with the round, and the
    CONSTRUCT_PROOF call on the formalised theory, started by whichever
    comes second: the strategy or that theory.  Leaving the block drops
    the replies `prove` did not read, once they settle."""

    def __init__(self, ctx: PipelineContext, facts: Sequence[Fact]):
        self._ctx = ctx
        self._lock = threading.Lock()
        self._theory: Optional[TheoryDoc] = None
        self._proof: Optional[_Call] = None
        self._settled = False
        problem = ctx.problem
        bindings = {
            "premise": problem.premise_text or "(none)",
            "hypothesis": problem.hypothesis_text,
            "facts": _facts_listing(facts),
        }
        parse = functools.partial(_parse_strategy, [f.id for f in facts])
        self._strategy = ctx.start(StageKind.ROUGH_INFERENCE, bindings, parse)
        self._strategy.add_done_callback(self._start_proof)

    def formalised(self, doc: TheoryDoc) -> None:
        with self._lock:
            self._theory = doc
        self._start_proof()

    def _start_proof(self, _: object = None) -> None:
        with self._lock:
            if self._settled or self._proof is not None or self._theory is None:
                return
            # Not cancelled: only leaving the block cancels, once settled.
            call = self._strategy
            if not call.done() or call.exception():
                return
            strategy = call.result()
            if not isinstance(strategy, MalformedStageOutput):
                self._proof = self._ask_proof(self._theory, strategy)

    def _ask_proof(self, doc: TheoryDoc, strategy: InferenceStrategy) -> _Call:
        bindings = {"theory": doc.rendered, "strategy": strategy.narrative or "(none)"}
        parse = functools.partial(_attach_proof, doc)
        return self._ctx.start(StageKind.CONSTRUCT_PROOF, bindings, parse)

    def prove(self, doc: TheoryDoc) -> Tuple[Optional[InferenceStrategy], TheoryDoc]:
        strategy = self._strategy.result()
        if isinstance(strategy, MalformedStageOutput):
            log.debug("rough inference unusable: %s", strategy)
            return None, doc
        self._start_proof()
        with self._lock:
            proof = self._proof if doc == self._theory else None
        if proof is None:
            proof = self._ask_proof(doc, strategy)
        proved = proof.result()
        if isinstance(proved, MalformedStageOutput):
            log.debug("proof construction unusable: %s", proved)
            return strategy, doc
        return strategy, proved

    def __enter__(self) -> "_ProofCalls":
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._settled = True
        _drop(self._strategy)
        if self._proof is not None:
            _drop(self._proof)
        # The strategy's done-callback holds this object: let go of the
        # futures, so the round's garbage needs no cycle collection.
        self._strategy = self._proof = None


def infer_and_prove(
    ctx: PipelineContext,
    doc: TheoryDoc,
    facts: Sequence[Fact],
    calls: Optional[_ProofCalls] = None,
) -> Tuple[Optional[InferenceStrategy], TheoryDoc]:
    """Sketch the argument, then construct and attach a linear proof.

    `calls` are the round's proof calls, already started on `facts`;
    by default they start here.  Either stage may fail; the round then
    proceeds with what it has (no strategy, or a proofless theory) and
    the check reports accordingly.
    """
    if calls is not None:
        return calls.prove(doc)
    with _ProofCalls(ctx, facts) as calls:
        return calls.prove(doc)


# ---------------------------------------------------------------------------
# Fact filtering and explanation refinement

def filter_facts(
    explanation: Sequence[Fact],
    strategy: Optional[InferenceStrategy],
    steps: Sequence[ProofStep],
) -> List[Fact]:
    """Keep exactly the facts the proof attempt used.

    A fact survives when its positional axiom name appears in some
    step's citations, or the strategy lists its id as relevant.  Order
    is preserved; the result is always a subsequence of the input.
    """
    cited: Set[str] = set()
    for step in steps:
        cited.update(step.facts_used)
    relevant = set(strategy.relevant_fact_ids) if strategy is not None else set()
    kept = []
    for index, fact in enumerate(explanation):
        axiom_name = "explanation_%d" % (index + 1)
        if axiom_name in cited or fact.id in relevant:
            kept.append(fact)
    return kept


def _describe_step(step: Optional[ProofStep], index: Optional[int]) -> str:
    if step is None:
        return "(none)"
    prefix = "step %d: " % (index + 1) if index is not None else ""
    return prefix + proof_step_text(step)


_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


def _parse_sentences(block: str) -> List[str]:
    """One sentence per line, list bullets and numbering stripped."""
    sentences = [_BULLET_RE.sub("", line).strip() for line in block.split("\n")]
    sentences = [s for s in sentences if s]
    if not sentences:
        raise ValueError("no sentences in response")
    return sentences


def refine_explanation(
    ctx: PipelineContext, bundle: FeedbackBundle, current: Sequence[Fact]
) -> Tuple[Fact, ...]:
    """Rewrite the explanation using prover feedback.

    Sentences that come back verbatim keep their fact ids; anything new
    or reworded gets a fresh id.  A malformed response leaves the
    explanation unchanged.
    """
    problem = ctx.problem
    current = tuple(current)
    relevant_sentences = "\n".join(
        "- " + a.source_text for a in bundle.relevant_axioms if a.source_text
    ) or "(none)"
    bindings = {
        "premise": problem.premise_text or "(none)",
        "hypothesis": problem.hypothesis_text,
        "facts": _facts_listing(current),
        "error_message": bundle.error_message or "(none)",
        "failed_step": _describe_step(bundle.failed_step, bundle.failed_step_index),
        "strategy": bundle.strategy.narrative if bundle.strategy else "(none)",
        "relevant_sentences": relevant_sentences,
    }
    try:
        sentences = ctx.ask(StageKind.REFINE_EXPLANATION, bindings, _parse_sentences)
    except MalformedStageOutput as exc:
        log.debug("refinement stage unusable: %s", exc)
        return current
    by_text = {f.text: f for f in current}
    facts: List[Fact] = []
    seen: Set[str] = set()
    for sentence in sentences:
        existing = by_text.get(sentence)
        fact = existing if existing is not None else Fact(ctx.next_fact_id(), sentence)
        if fact.id in seen:
            continue
        seen.add(fact.id)
        facts.append(fact)
    return tuple(facts)


# ---------------------------------------------------------------------------
# The driver

def _synthetic_failure_report(text: str) -> CheckReport:
    return build_report("failed", [ProverMessage("error", text)], 0.0, None)


def _assemble_feedback(
    report: CheckReport, doc: TheoryDoc, strategy: Optional[InferenceStrategy]
) -> FeedbackBundle:
    if report.first_error is not None:
        error_text = report.first_error[0].text
    else:
        error_text = "prover reported failure without messages"
    index = locate_failed_step(report, doc)
    if index is None:
        return FeedbackBundle(error_text, strategy=strategy)
    step = doc.proof[index]
    cited = _cited_axioms(step.facts_used, doc)
    return FeedbackBundle(error_text, step, index, strategy, cited)


class _BackendUnavailable(Exception):
    """The prover backend could not open a session."""


class _ProblemSession:
    """The prover session one problem's rounds share."""

    def __init__(self, backend: ProverBackend):
        self._backend = backend
        self._opened: Optional["Future[SessionHandle]"] = None

    def begin_round(self) -> None:
        """Start opening a session unless a usable one is open."""
        if self._opened is not None:
            handle = self._opened.result()
            if handle.usable:
                return
            handle.close()
        opened: "Future[SessionHandle]" = Future()
        self._opened = opened
        # An Isabelle session takes a server round trip or more to start,
        # which a helper thread hides behind formalisation; an oracle
        # session is a plain object, so a thread would cost more than it
        # hides.
        if isinstance(self._backend, IsabelleServer):
            threading.Thread(target=self._open, args=(opened,), daemon=True).start()
        else:
            self._open(opened)

    def _open(self, opened: "Future[SessionHandle]") -> None:
        try:
            # Through the module global, which tests and the bench replace.
            opened.set_result(start_session(self._backend))
        except Exception as exc:
            opened.set_exception(exc)

    def handle(self) -> SessionHandle:
        """The round's session, once open; waits for a pending open."""
        try:
            return self._opened.result()
        except (ProverError, OSError) as exc:
            raise _BackendUnavailable(exc)

    def close(self) -> None:
        if self._opened is not None and self._opened.exception() is None:
            self._opened.result().close()


def _run_iteration(
    ctx: PipelineContext, explanation: Tuple[Fact, ...], session: _ProblemSession
) -> IterationRecord:
    # A round ends only once every call it started has settled.
    with _ProofCalls(ctx, explanation) as calls:
        cfg = ctx.cfg
        failure: Optional[Exception] = None
        try:
            doc = formalise(ctx.problem, cfg, explanation, ctx)
        except (MalformedStageOutput, FormulaRejected) as exc:
            failure = exc
        finally:
            # A failed session open outranks whatever formalisation raised.
            handle = session.handle()
        if failure is not None:
            report = _synthetic_failure_report(str(failure))
            bundle = FeedbackBundle(str(failure))
            return IterationRecord(
                explanation_before=explanation,
                theory=None,
                syntax_iterations_used=0,
                syntax_errors_before=0,
                syntax_errors_after=0,
                report=report,
                feedback=bundle,
                explanation_after=explanation,
            )
        calls.formalised(doc)
        syntax = refine_syntax_loop(ctx, doc, handle)
        # A timed-out check ends the round: its report is the round's report.
        strategy, doc, report = None, syntax.doc, syntax.last_report
        if report.status != "timeout":
            strategy, doc = infer_and_prove(ctx, doc, explanation, calls)
            report = check_theory(handle, doc, cfg.timeout_s)
        if report.status == "valid":
            feedback = None
            processed = len(doc.proof)
        else:
            feedback = _assemble_feedback(report, doc, strategy)
            processed = feedback.failed_step_index or 0
        return IterationRecord(
            explanation_before=explanation,
            theory=doc,
            syntax_iterations_used=syntax.iterations_used,
            syntax_errors_before=syntax.errors_before,
            syntax_errors_after=syntax.errors_after,
            report=report,
            feedback=feedback,
            explanation_after=explanation,
            proof_steps_suggested=len(doc.proof),
            proof_steps_processed=processed,
        )


def run_refiner(problem: NLIProblem, cfg: RefinerConfig) -> RefinementTrace:
    """Run the full loop on one problem and return its trace."""
    ctx = PipelineContext(cfg, problem)
    explanation = tuple(problem.explanation)
    iterations: List[IterationRecord] = []
    rounds = 0
    diagnostic: Optional[str] = None
    final = "exhausted_invalid"
    session = _ProblemSession(cfg.backend)
    try:
        while True:
            session.begin_round()
            try:
                record = _run_iteration(ctx, explanation, session)
            except _BackendUnavailable as exc:
                diagnostic = "backend unavailable: %s" % exc
                break
            if record.report.status == "valid":
                iterations.append(record)
                final = "valid_initially" if rounds == 0 else "refined_valid"
                break
            if rounds >= cfg.max_refinement_iterations:
                iterations.append(record)
                break
            # A failed round always carries feedback, and a strategy only
            # exists when the round formalised a theory.
            strategy = record.feedback.strategy
            if strategy is not None:
                filtered = filter_facts(explanation, strategy, record.theory.proof)
            else:
                filtered = list(explanation)
            refined = refine_explanation(ctx, record.feedback, filtered)
            record = replace(record, explanation_after=refined)
            iterations.append(record)
            explanation = refined
            rounds += 1
    finally:
        session.close()
    return RefinementTrace(
        problem_id=problem.id,
        dataset=problem.dataset,
        iterations=tuple(iterations),
        final_status=final,
        total_iterations=rounds,
        diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# Trace serialisation
#
# One encoder and one decoder walk dataclass fields in declaration order.
# Enums go by value, tuples (Span included) become lists, None stays null.
# Three values are stored by reference rather than by structure: a theory
# as its rendered text, a report's first error as {index, class} into its
# messages, and the axioms a failed step cited by name, resolved against
# the same record's theory (names it does not declare are dropped).


def to_json(value):
    """JSON-ready data for a trace value or any dataclass built like one."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, TheoryDoc):
        return value.rendered
    if isinstance(value, Axiom):
        return value.name
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): to_json(v) for k, v in value.items()}
    data = {}
    for f in fields(value):
        item = getattr(value, f.name)
        if f.name == "first_error" and item is not None:
            message, cls = item
            item = {"index": value.messages.index(message), "class": cls.value}
        data[f.name] = to_json(item)
    return data


@functools.lru_cache(maxsize=None)
def _decoder(hint):
    """Build `(data, theory) -> value` for one type; data is never null."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        return _decoder(typing.get_args(hint)[0])
    if hint is TheoryDoc:
        return lambda data, theory: parse_theory(data)
    if typing.get_origin(hint) is tuple:  # Tuple[X, ...]
        item = typing.get_args(hint)[0]
        if item is Axiom:
            return _cited_axioms
        each = _decoder(item)
        return lambda data, theory: tuple(each(x, theory) for x in data)
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        plan = tuple((name, _decoder(h)) for name, h in hints.items())
        return functools.partial(_decode_fields, hint, plan)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return lambda data, theory: hint(data)
    # Plain values; ProverMessage turns a span list back into a Span itself.
    return lambda data, theory: data


def _decode_fields(cls, plan, data, theory):
    kwargs = {}
    for name, decode in plan:
        if name not in data:
            continue  # the field's default applies
        value = data[name]
        if value is None:
            kwargs[name] = None
        elif name == "first_error":
            message = kwargs["messages"][value["index"]]
            kwargs[name] = (message, ErrorClass(value["class"]))
        else:
            kwargs[name] = decode(value, kwargs.get("theory", theory))
    return cls(**kwargs)


def _cited_axioms(names, theory: Optional[TheoryDoc]) -> Tuple[Axiom, ...]:
    by_name = {a.name: a for a in theory.axioms} if theory is not None else {}
    return tuple(by_name[n] for n in names if n in by_name)


def trace_to_dict(trace: RefinementTrace) -> dict:
    data = to_json(trace)
    # The summary keys come first and the per-round history last.
    data["iterations"] = data.pop("iterations")
    return data


def trace_from_dict(data: dict) -> RefinementTrace:
    # A trace without a dataset tag belongs to the default dataset.
    return _decoder(RefinementTrace)({"dataset": "default", **data}, None)

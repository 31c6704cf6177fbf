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

A round runs those steps one at a time, in that order.  Live and record
runs through the HTTP transport also ask some calls ahead, on the
module's stage pool (`PipelineContext.ask_ahead`), and the step that
asks the same prompt takes that call's reply: ROUGH_INFERENCE, which
reads only the explanation, as the round starts; every SENTENCE_TO_LOGIC
call once DETECT_EVENTS answers; and CONSTRUCT_PROOF on the formalised
theory once the strategy is back (waiting for it if need be), so the
proof is constructed while the syntax sub-loop checks that theory.  A
call asked ahead that the round never asks for (the formulas after the
first that fails, the strategy and proof of a round whose formalisation
fails or whose check times out, the proof of a theory the sub-loop
repaired) is cancelled, or waited out once begun, before the round
ends.  Replayed and scripted runs ask nothing ahead, so they make
exactly the serial loop's calls in its order.

When the config carries a reply table, as the copy that `run_batch`
makes for a record run or a live run at temperature 0 does, the
problems of the batch share model replies: `PipelineContext.ask` looks
each call up by its stage and bindings, the first ask of a prompt calls
the model, and every later or concurrent ask of it takes that reply and
runs its own parser.  A dropped reply answers later asks too.  A live
run above temperature 0 samples every ask, and replays, like
`run_refiner` outside a batch, make every call.  Such a batch whose
calls wait on the network also asks queued problems' round 0 ahead
(`ask_round_ahead`): the asks of `_run_iteration` up to its first
check, on a context of their own, so the problem's own round takes
their replies from the table.

A problem's `PipelineContext` holds what it owns: its caches, its calls
asked ahead and the prover sessions its rounds check on, every one
closed when the problem ends.  Rounds share one session, and a round
opens another only when a check has left the last one unusable: a
timed-out Isabelle check kills its session.  An Isabelle
session opens on the stage pool while the round formalises and is joined
at the round's first check, so its start-up overlaps the round's first
LLM calls; an oracle session is a plain object and opens inline.  Under
`run_batch` the Isabelle sessions of all problems attach to the batch's
one server session, and on the ground oracle every problem checks on
the batch's one oracle session and shares its verdicts (see
`verifine.prover`).  A backend that cannot open a session ends the
problem with a diagnostic on the trace and no recorded round, even when
formalisation failed meanwhile.  So with a dead backend, round 0's
formalisation calls are made before the failure shows.  A problem
whose run blows up (rather than failing gracefully inside the loop)
still yields a trace from `run_refiner`, the one place a problem ends:
exhausted, zero iterations, the exception as its diagnostic.
"""

import enum
import functools
import logging
import re
import sys
import typing
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .llm import (
    LLMConfig,
    MalformedStageOutput,
    ReplyTable,
    TranscriptCache,
    Transport,
    check_mode,
    complete,
    extract_stage_output,
    prompt_key,
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

    `backend` is None only in a config that formalises and checks
    nothing.  Each value holds `replies`, not a field: None, or the
    `ReplyTable` through which the problems of a batch share model
    replies, which the copy `run_batch` runs its problems on carries.
    """

    llm: LLMConfig
    backend: Optional[ProverBackend]
    mode: str = "live"
    cache: Optional[TranscriptCache] = None
    transport: Optional[Transport] = None
    max_refinement_iterations: int = 10
    syntax_iterations: int = 3
    timeout_s: float = CHECK_TIMEOUT_S

    def __post_init__(self):
        check_mode(self.mode, self.cache)
        if self.backend is not None and not all(
            hasattr(self.backend, name) for name in ("open", "opens_remotely")
        ):
            raise TypeError("unknown backend: %r" % (self.backend,))
        if self.max_refinement_iterations < 0:
            raise ValueError("max_refinement_iterations must be >= 0")
        if self.syntax_iterations < 0:
            raise ValueError("syntax_iterations must be >= 0")
        checked_timeout(self.timeout_s)
        self.replies: Optional[ReplyTable] = None


def calls_wait(cfg: RefinerConfig) -> bool:
    """Whether `cfg`'s model calls wait on the network, so asking them
    ahead pays: live and record mode through the HTTP transport."""
    return cfg.mode != "replay" and cfg.transport is None


# Threads that run the stage calls asked ahead and the Isabelle session
# opens, shared by every problem of the process.  The pool sets no cap of
# its own: it starts a thread only when none is idle, so it grows to the
# most calls in flight at once, which the batch's workers and each round's
# asks ahead bound.  A task waits only on a call already running on
# another thread, and an idle thread keeps its connection.
_stage_pool = ThreadPoolExecutor(sys.maxsize, thread_name_prefix="verifine-stage")


class PipelineContext:
    """What one problem owns: its stage calls and the calls asked ahead,
    its formalisation caches and the prover sessions its rounds open."""

    def __init__(self, cfg: RefinerConfig, problem: NLIProblem):
        self.cfg = cfg
        self.problem = problem
        self.events: Dict[str, List[str]] = {}
        self.formulas: Dict[Tuple[str, str], str] = {}
        self._counter = 0
        for fact in problem.explanation:
            match = re.fullmatch(r"f(\d+)", fact.id)
            if match:
                self._counter = max(self._counter, int(match.group(1)))
        # The round's calls asked ahead that no ask has taken yet, by
        # prompt key.  Only the problem's own thread touches them.
        self._ahead: Dict[tuple, Future] = {}
        # Every session open the problem started; the last is the round's.
        self._opened: List["Future[SessionHandle]"] = []

    def ask(self, stage: StageKind, bindings: Mapping[str, str], parse: Callable):
        """One stage call: render, complete, then `parse` the reply's last
        fenced block.  Raises MalformedStageOutput when the reply has no
        usable output.  A prompt asked ahead takes that call's reply, and
        with a reply table a prompt the batch has asked already takes
        that ask's reply."""
        ahead = self._ahead.pop(prompt_key(stage, bindings), None) if self._ahead else None
        raw = ahead.result() if ahead is not None else self._reply(stage, bindings)
        return extract_stage_output(stage, raw, parse)

    def ask_ahead(self, stage: StageKind, bindings: Mapping[str, str]) -> Optional[Future]:
        """Start the call of a prompt the round will ask, when calls wait
        on the network (`calls_wait`): it runs on the stage pool and its
        ask takes the reply.  Returns that call, or None in a replayed or
        scripted run, which makes each call at its ask."""
        if not calls_wait(self.cfg):
            return None
        key = prompt_key(stage, bindings)
        if key not in self._ahead:
            self._ahead[key] = _stage_pool.submit(self._reply, stage, bindings)
        return self._ahead[key]

    def _reply(self, stage: StageKind, bindings: Mapping[str, str]) -> str:
        cfg = self.cfg
        call = functools.partial(
            complete, stage, bindings, cfg.llm, cfg.mode, cfg.cache, cfg.transport
        )
        if cfg.replies is None:
            return call()
        return cfg.replies.reply(stage, bindings, call)

    def settle(self) -> None:
        """Cancel each call asked ahead that no ask took, or wait it out
        once begun, so no call outlives the round that asked it."""
        for ahead in self._ahead.values():
            if not ahead.cancel():
                ahead.exception()
        self._ahead.clear()

    def next_fact_id(self) -> str:
        self._counter += 1
        return "f%d" % self._counter

    def begin_round(self) -> None:
        """Start opening a session unless a usable one is open; an
        unusable one stays for `close`.  Through the module global
        `start_session`, which tests and the bench replace."""
        if self._opened and self._opened[-1].result().usable:
            return
        # A session that opens remotely takes a server round trip or more,
        # which the stage pool hides behind formalisation; any other is a
        # plain object, so a pool task would cost more than it hides.
        if self.cfg.backend.opens_remotely:
            opened = _stage_pool.submit(start_session, self.cfg.backend)
        else:
            opened = Future()
            opened.set_result(start_session(self.cfg.backend))
        self._opened.append(opened)

    def handle(self) -> SessionHandle:
        """The round's session, once open; waits for a pending open."""
        try:
            return self._opened[-1].result()
        except (ProverError, OSError) as exc:
            raise _BackendUnavailable(exc)

    def close(self) -> None:
        """Close every session the problem opened, each once its open is
        done: the one place a problem's sessions close."""
        for opened in self._opened:
            if opened.exception() is None:
                opened.result().close()


class _BackendUnavailable(Exception):
    """The prover backend could not open a session."""


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


def _formula_bindings(key: Tuple[str, str], ctx: PipelineContext) -> Dict[str, str]:
    role, sentence = key
    events = ctx.events.get(sentence, [])
    return {
        "sentence": sentence,
        "role": role,
        "events": ", ".join(events) if events else "(none)",
    }


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
    # asked in this order up to the first failure.
    named = []
    if problem.premise_text:
        named.append(((_ROLE_PREMISE, problem.premise_text), "premise"))
    named.extend(((_ROLE_FACT, f.text), f.id) for f in facts)
    named.append(((_ROLE_HYPOTHESIS, problem.hypothesis_text), "hypothesis"))
    _detect_events([sentence for (_, sentence), _ in named], ctx)
    asks = {key: _formula_bindings(key, ctx) for key, _ in named if key not in ctx.formulas}
    for bindings in asks.values():
        ctx.ask_ahead(StageKind.SENTENCE_TO_LOGIC, bindings)
    formulas = []
    for key, name in named:
        if key not in ctx.formulas:
            stage = StageKind.SENTENCE_TO_LOGIC
            ctx.formulas[key] = ctx.ask(stage, asks[key], _one_line_formula)
        formulas.append(_parse_sentence_formula(name, ctx.formulas[key]))
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


def _strategy_bindings(problem: NLIProblem, facts: Sequence[Fact]) -> Dict[str, str]:
    return {
        "premise": problem.premise_text or "(none)",
        "hypothesis": problem.hypothesis_text,
        "facts": _facts_listing(facts),
    }


def _proof_bindings(doc: TheoryDoc, strategy: InferenceStrategy) -> Dict[str, str]:
    return {"theory": doc.rendered, "strategy": strategy.narrative or "(none)"}


def infer_and_prove(
    ctx: PipelineContext, doc: TheoryDoc, facts: Sequence[Fact]
) -> Tuple[Optional[InferenceStrategy], TheoryDoc]:
    """Sketch the argument, then construct and attach a linear proof.

    Either stage may fail; the round then proceeds with what it has (no
    strategy, or a proofless theory) and the check reports accordingly.
    """
    bindings = _strategy_bindings(ctx.problem, facts)
    parse = functools.partial(_parse_strategy, [f.id for f in facts])
    try:
        strategy = ctx.ask(StageKind.ROUGH_INFERENCE, bindings, parse)
    except MalformedStageOutput as exc:
        log.debug("rough inference unusable: %s", exc)
        return None, doc
    bindings = _proof_bindings(doc, strategy)
    try:
        proved = ctx.ask(
            StageKind.CONSTRUCT_PROOF, bindings, functools.partial(_attach_proof, doc)
        )
    except MalformedStageOutput as exc:
        log.debug("proof construction unusable: %s", exc)
        return strategy, doc
    return strategy, proved


def _ask_proof_ahead(
    ctx: PipelineContext, doc: TheoryDoc, facts: Sequence[Fact], rough: Future
) -> None:
    """Ask CONSTRUCT_PROOF ahead on the formalised theory, once the
    ROUGH_INFERENCE call asked ahead has answered.  A failed call or an
    unusable reply asks nothing; `infer_and_prove` meets it in turn."""
    if rough.exception() is not None:
        return
    parse = functools.partial(_parse_strategy, [f.id for f in facts])
    try:
        strategy = extract_stage_output(StageKind.ROUGH_INFERENCE, rough.result(), parse)
    except MalformedStageOutput:
        return
    ctx.ask_ahead(StageKind.CONSTRUCT_PROOF, _proof_bindings(doc, strategy))


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
    current = tuple(current)
    relevant_sentences = "\n".join(
        "- " + a.source_text for a in bundle.relevant_axioms if a.source_text
    ) or "(none)"
    bindings = {
        **_strategy_bindings(ctx.problem, current),
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


def _run_iteration(ctx: PipelineContext, explanation: Tuple[Fact, ...]) -> IterationRecord:
    cfg = ctx.cfg
    # ROUGH_INFERENCE reads only the explanation, so it is asked ahead at
    # once; a round ends only once every call it asked ahead has settled.
    strategy_bindings = _strategy_bindings(ctx.problem, explanation)
    rough = ctx.ask_ahead(StageKind.ROUGH_INFERENCE, strategy_bindings)
    try:
        failure: Optional[Exception] = None
        try:
            doc = formalise(ctx.problem, cfg, explanation, ctx)
        except (MalformedStageOutput, FormulaRejected) as exc:
            failure = exc
        finally:
            # A failed session open outranks whatever formalisation raised.
            handle = ctx.handle()
        if failure is not None:
            message = ProverMessage("error", str(failure))
            return IterationRecord(
                explanation_before=explanation,
                theory=None,
                syntax_iterations_used=0,
                syntax_errors_before=0,
                syntax_errors_after=0,
                report=build_report("failed", [message], 0.0, None),
                feedback=FeedbackBundle(str(failure)),
                explanation_after=explanation,
            )
        if rough is not None:
            _ask_proof_ahead(ctx, doc, explanation, rough)
        syntax = refine_syntax_loop(ctx, doc, handle)
        # A timed-out check ends the round: its report is the round's report.
        strategy, doc, report = None, syntax.doc, syntax.last_report
        if report.status != "timeout":
            strategy, doc = infer_and_prove(ctx, doc, explanation)
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
    finally:
        ctx.settle()


def ask_round_ahead(problem: NLIProblem, cfg: RefinerConfig) -> None:
    """Make round 0's model calls for `problem` before its own run, so
    that run's round takes their replies from the batch's reply table:
    ROUGH_INFERENCE asked ahead, the formalisation, then the strategy
    and the proof, as `_run_iteration` asks them, on a context of its
    own.  Opens no session and checks nothing.  Nothing it meets is
    raised: a failed call or an unusable reply is left for the
    problem's own round to meet."""
    ctx = PipelineContext(cfg, problem)
    explanation = tuple(problem.explanation)
    ctx.ask_ahead(StageKind.ROUGH_INFERENCE, _strategy_bindings(problem, explanation))
    try:
        doc = formalise(problem, cfg, explanation, ctx)
        infer_and_prove(ctx, doc, explanation)
    except Exception as exc:
        log.debug("problem %s: round 0 asked ahead stopped: %s", problem.id, exc)
    finally:
        ctx.settle()


def run_refiner(problem: NLIProblem, cfg: RefinerConfig) -> RefinementTrace:
    """Run the full loop on one problem and return its trace.  Any
    exception from a round, a refinement or the session close ends the
    problem with a trace too: exhausted, no rounds, diagnostic attached."""
    ctx = PipelineContext(cfg, problem)
    explanation = tuple(problem.explanation)
    iterations: List[IterationRecord] = []
    rounds = 0
    diagnostic: Optional[str] = None
    final = "exhausted_invalid"
    try:
        with closing(ctx):
            while True:
                ctx.begin_round()
                try:
                    record = _run_iteration(ctx, explanation)
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
                # A failed round always carries feedback, and a strategy
                # only exists when the round formalised a theory.
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
    except Exception as exc:
        log.error("problem %s failed: %s", problem.id, exc, exc_info=True)
        iterations, rounds, final = [], 0, "exhausted_invalid"
        diagnostic = "pipeline error: %s" % exc
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

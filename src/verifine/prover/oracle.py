"""Ground-enumeration prover backend.

Quantifiers are grounded over a finite constant pool: every free variable
of the premises and the goal acts as a named constant, plus some fresh
anonymous constants.  Universals expand to conjunctions over the pool,
existentials to disjunctions.  Entailment of a goal from premises is then
decided propositionally: the premises plus the negated goal are clausified
and handed to a small DPLL solver, and the goal is entailed exactly when
that set is unsatisfiable.  The clause form is one-sided (Plaisted &
Greenbaum 1986): an auxiliary variable names a nested conjunction and
only implies it, so the solver branches on the ground atoms alone.

How many fresh constants a session grounds over depends on the
entailment.  When no existential sits under a universal in the negation
normal form of the premises and the negated goal (the Bernays–Schönfinkel
class), Skolemising the outer existentials yields constants only, and the
set has a model iff it has one over those constants and the free names
(Piskac, de Moura & Bjørner 2010).  One fresh constant per outer
existential variable then decides entailment exactly.  Outside that
fragment the pool is the free names plus `domain_bound` fresh constants,
and a verdict of "entailed" holds only up to that bound.

A document without proof steps is checked as one entailment (assumption
and axioms against the theorem goal).  A document with a proof is checked
step by step the way an interactive prover would: each step's goal must
follow from the chained previous goal plus whatever facts the step cites.
An `OracleSession` decides each distinct entailment once.  Its verdict
goes into the session's table, and repeats are answered from there; a
theory the session already decided is answered from its latest reports,
without walking its entailments again.  A session holds no resource, so
a batch's problems share one on every worker thread, and each reuses
the others' verdicts.  A check that ran out of time is not remembered.
"""

import contextlib
import itertools
import threading
import time
from dataclasses import replace
from typing import ContextManager, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    free_variables,
)
from ..theory import (
    ASSUMPTION_NAME,
    StepKind,
    TheoryDoc,
    TheoryParseError,
    line_span,
    parse_inner_formula,
    proof_step_lines,
    shows_line,
)
from .messages import (
    CHECK_TIMEOUT_S,
    CheckReport,
    ProverMessage,
    ProverError,
    Span,
    build_report,
)


class OracleTimeout(ProverError):
    """Internal signal: the solve budget ran out."""


# --- propositional layer ---------------------------------------------------

def _satisfiable(clauses: List[List[int]], nvars: int, deadline: float) -> bool:
    """DPLL with unit propagation and chronological backtracking,
    deciding variables 1..nvars only.

    Any higher variable must be a one-sided auxiliary: no clause holds
    more than one negated auxiliary.  Once the decided variables are all
    set and propagation finds no conflict, every clause not yet satisfied
    holds at least two open auxiliaries, one of them positive, so setting
    each open auxiliary true satisfies the set.  With nvars covering
    every variable the search is complete on any CNF.
    """
    for clause in clauses:
        if not clause:
            return False
    occ: Dict[int, List[int]] = {}
    for idx, clause in enumerate(clauses):
        for lit in clause:
            occ.setdefault(lit, []).append(idx)

    assign: Dict[int, bool] = {}
    trail: List[int] = []
    decisions: List[Tuple[int, int, bool]] = []  # (trail mark, literal, flipped)

    def val(lit: int) -> Optional[bool]:
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v == (lit > 0)

    def push(lit: int):
        assign[abs(lit)] = lit > 0
        trail.append(lit)

    def propagate(start: int) -> Optional[int]:
        qi = start
        steps = 0
        while qi < len(trail):
            steps += 1
            if steps % 64 == 0 and time.monotonic() > deadline:
                raise OracleTimeout()
            lit = trail[qi]
            qi += 1
            for ci in occ.get(-lit, ()):
                clause = clauses[ci]
                unassigned = None
                open_count = 0
                satisfied = False
                for l in clause:
                    v = val(l)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        open_count += 1
                        unassigned = l
                        if open_count > 1:
                            break
                if satisfied or open_count > 1:
                    continue
                if open_count == 0:
                    return ci
                push(unassigned)
        return None

    for clause in clauses:
        if len(clause) == 1:
            v = val(clause[0])
            if v is False:
                return False
            if v is None:
                push(clause[0])
    if propagate(0) is not None:
        return False

    while True:
        if time.monotonic() > deadline:
            raise OracleTimeout()
        # Every variable below the newest decision's was assigned before
        # that decision was made, and backtracking to it keeps them.
        var = abs(decisions[-1][1]) + 1 if decisions else 1
        while var <= nvars and var in assign:
            var += 1
        if var > nvars:
            return True
        decisions.append((len(trail), var, False))
        push(var)
        while propagate(len(trail) - 1) is not None:
            # Both values of a flipped decision failed; reopen the newest
            # decision still untried the other way.
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return False
            mark, lit, _ = decisions.pop()
            while len(trail) > mark:
                assign.pop(abs(trail.pop()))
            decisions.append((mark, -lit, True))
            push(-lit)


# --- grounding -------------------------------------------------------------

# Quantifier instances grounded between two looks at the clock.
_INSTANCES_PER_CLOCK_CHECK = 256


class _Grounder:
    """Maps ground atoms to propositional variables and clausifies."""

    def __init__(self, domain_size: int, deadline: float):
        self.domain = list(range(domain_size))
        self.deadline = deadline
        self.instances = 0
        self.atom_vars: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self.next_var = 1

    def atom_var(self, name: str, elems: Tuple[int, ...]) -> int:
        key = (name, elems)
        var = self.atom_vars.get(key)
        if var is None:
            var = self.atom_vars[key] = self.new_var()
        return var

    def new_var(self) -> int:
        var = self.next_var
        self.next_var += 1
        return var

    def ground(self, f: Formula, env: Dict[str, int], neg: bool):
        if isinstance(f, Atom):
            elems = tuple(env[v.name] for v in f.args)
            var = self.atom_var(f.pred.name, elems)
            return ("lit", -var if neg else var)
        if isinstance(f, Not):
            return self.ground(f.child, env, not neg)
        if isinstance(f, (And, Or, Implies)):
            # Negation swaps conjunction and disjunction; an implication is
            # a disjunction whose left side is negated.
            kind = "and" if isinstance(f, And) != neg else "or"
            left_neg = neg != isinstance(f, Implies)
            return self._merge(
                kind,
                [self.ground(f.left, env, left_neg), self.ground(f.right, env, neg)],
            )
        if isinstance(f, (Forall, Exists)):
            universal = isinstance(f, Forall)
            kind = "and" if universal != neg else "or"
            parts = []
            names = [v.name for v in f.vars]
            for combo in itertools.product(self.domain, repeat=len(names)):
                self.instances += 1
                if (
                    self.instances % _INSTANCES_PER_CLOCK_CHECK == 0
                    and time.monotonic() > self.deadline
                ):
                    raise OracleTimeout()
                inner_env = dict(env)
                inner_env.update(zip(names, combo))
                parts.append(self.ground(f.body, inner_env, neg))
            return self._merge(kind, parts)
        raise TypeError("not a formula: %r" % (f,))

    @staticmethod
    def _merge(kind: str, parts: List):
        flat = []
        for part in parts:
            if part[0] == kind:
                flat.extend(part[1])
            else:
                flat.append(part)
        return (kind, flat)

    def clausify(self, tree, guard: Tuple[int, ...] = ()) -> List[List[int]]:
        """The tree's clauses, each led by `guard`.

        A disjunction's non-literal child is named by a fresh auxiliary,
        and the child's clauses are guarded by that auxiliary negated, so
        they define it.  No other auxiliary occurs negated: every clause
        holds at most one negated auxiliary, its guard (the one-sided form
        `_satisfiable` relies on).
        """
        if tree[0] == "lit":
            return [[*guard, tree[1]]]
        if tree[0] == "and":
            return [c for child in tree[1] for c in self.clausify(child, guard)]
        clause = list(guard)
        extra: List[List[int]] = []
        for child in tree[1]:
            if child[0] == "lit":
                clause.append(child[1])
            else:
                aux = self.new_var()
                clause.append(aux)
                extra.extend(self.clausify(child, (-aux,)))
        return [clause] + extra


def _collect_free_names(formulas: Iterable[Formula]) -> List[str]:
    names: List[str] = []
    for f in formulas:
        for v in sorted(free_variables(f), key=lambda v: v.name):
            if v.name not in names:
                names.append(v.name)
    return names


def entails(
    premises: Sequence[Formula],
    goal: Formula,
    fresh_constants: int,
    deadline: float,
) -> bool:
    """Ground entailment over an explicit pool.

    The constant pool is one element per free variable occurring in the
    premises or the goal, plus `fresh_constants` anonymous elements, and
    at least one element.  Grounding and solving both raise
    OracleTimeout once `deadline` (a `time.monotonic()` value) passes.
    """
    frees = _collect_free_names(list(premises) + [goal])
    domain_size = len(frees) + fresh_constants
    if domain_size == 0:
        domain_size = 1
    grounder = _Grounder(domain_size, deadline)
    env = {name: idx for idx, name in enumerate(frees)}
    # Every formula is grounded before any is clausified, so the ground
    # atoms are variables 1..atoms and the auxiliaries come after them.
    trees = [grounder.ground(premise, env, False) for premise in premises]
    trees.append(grounder.ground(goal, env, True))
    atoms = grounder.next_var - 1
    clauses = [clause for tree in trees for clause in grounder.clausify(tree)]
    return not _satisfiable(clauses, atoms, deadline)


def _skolem_constants(
    premises: Sequence[Formula], goal: Formula
) -> Optional[int]:
    """The fresh constants that decide `premises |= goal` exactly, or None.

    Walks the premises and the negated goal in negation normal form.  When
    no existential sits under a universal, each outer existential variable
    Skolemises to a constant, and the count of those variables is
    returned; otherwise None.
    """
    count = 0
    # (formula, positive polarity, under a universal)
    stack = [(f, True, False) for f in premises]
    stack.append((goal, False, False))
    while stack:
        f, positive, under_universal = stack.pop()
        if isinstance(f, Atom):
            continue
        if isinstance(f, Not):
            stack.append((f.child, not positive, under_universal))
        elif isinstance(f, Implies):
            stack.append((f.left, not positive, under_universal))
            stack.append((f.right, positive, under_universal))
        elif isinstance(f, (And, Or)):
            stack.append((f.left, positive, under_universal))
            stack.append((f.right, positive, under_universal))
        else:
            universal = isinstance(f, Forall) == positive
            if not universal:
                if under_universal:
                    return None
                count += len(f.vars)
            stack.append((f.body, positive, under_universal or universal))
    return count


# --- document checking -----------------------------------------------------

def _line_message(doc: TheoryDoc, line_no: int, text: str) -> ProverMessage:
    start, end = line_span(doc.rendered, line_no)
    return ProverMessage("error", text, Span(line_no, start, end))


# Entailments a session keeps verdicts for; past this the oldest is dropped.
VERDICTS_SIZE = 8192

# Theories a session keeps its latest reports for.  A repeat follows its
# first check within a round, so this covers the checks in flight; each
# entry keeps the theory's text alive, about 1.2 kB.
REPORTS_SIZE = 256


class OracleSession:
    """Session handle for the ground oracle, safe to share between threads.

    The session answers a proof step that recurs in a later round or
    another problem from its verdict table without grounding again.  The
    table holds at most VERDICTS_SIZE entailments and drops the oldest
    first.  A theory it decided (`valid` or `failed`) it answers again
    from its report table, keyed by the rendered text, with the report
    it gave then, stamped with the repeat's own elapsed time; a timed
    out check is never kept.  That table holds at most REPORTS_SIZE
    theories, and never more than VERDICTS_SIZE, dropping the oldest
    first.  One lock guards only reading, inserting and dropping entries
    of both tables, never grounding or solving.  `domain_bound` sets the pool
    only where the Bernays–Schönfinkel fragment does not decide it (see
    the module docstring), so one session serves one bound.
    """

    # Only an Isabelle session can become unusable.
    usable = True
    opens_remotely = False

    def __init__(self, domain_bound: int):
        if domain_bound < 1:
            raise ValueError("domain_bound must be >= 1")
        self.domain_bound = domain_bound
        self._verdicts: Dict[Tuple[Tuple[Formula, ...], Formula], List[bool]] = {}
        self._reports: Dict[str, CheckReport] = {}
        self._lock = threading.Lock()

    def check_document(
        self, doc: TheoryDoc, timeout_s: float = CHECK_TIMEOUT_S
    ) -> CheckReport:
        started = time.monotonic()
        text = doc.rendered
        with self._lock:
            kept = self._reports.get(text)
        if kept is not None:
            return replace(kept, elapsed=time.monotonic() - started)
        report = self._decide(doc, started, timeout_s)
        if report.status != "timeout":
            with self._lock:
                self._reports[text] = report
                # No more theories than the verdict table keeps entailments,
                # so a smaller verdict table bounds this one too.
                if len(self._reports) > min(REPORTS_SIZE, VERDICTS_SIZE):
                    del self._reports[next(iter(self._reports))]
        return report

    def open(self) -> "OracleSession":
        return self

    def shared(self) -> ContextManager["OracleSession"]:
        return contextlib.nullcontext(self)

    def close(self):
        """Nothing to release: a closed session stays usable."""

    # -- internals

    def _decide(self, doc: TheoryDoc, started: float, timeout_s: float) -> CheckReport:
        deadline = started + timeout_s
        try:
            for line_no, premises, goal, failure in self._entailments(doc):
                if goal is None or not self._entails(premises, goal, deadline):
                    message = _line_message(doc, line_no, failure)
                    elapsed = time.monotonic() - started
                    return build_report("failed", [message], elapsed, doc)
        except OracleTimeout:
            elapsed = time.monotonic() - started
            message = ProverMessage(
                "error", "Timeout: solve budget of %.1fs exhausted" % timeout_s
            )
            return build_report("timeout", [message], elapsed, doc)
        return build_report("valid", [], time.monotonic() - started, doc)

    def _entails(
        self, premises: Sequence[Formula], goal: Formula, deadline: float
    ) -> bool:
        # Each formula keeps its hash, so keying costs one lookup per
        # formula: the first ask makes the slot, [] while undecided, and
        # its verdict fills it.  A timeout leaves the slot empty, so it
        # is asked again.
        with self._lock:
            slot = self._verdicts.setdefault((tuple(premises), goal), [])
            if len(self._verdicts) > VERDICTS_SIZE:
                del self._verdicts[next(iter(self._verdicts))]
        if not slot:
            fresh = _skolem_constants(premises, goal)
            if fresh is None:
                fresh = self.domain_bound
            # Two threads may decide one entailment at once; both verdicts
            # are the same, and the first appended is the one read.
            slot.append(entails(premises, goal, fresh, deadline))
        return slot[0]

    def _entailments(
        self, doc: TheoryDoc
    ) -> Iterator[Tuple[int, List[Formula], Optional[Formula], str]]:
        """The entailments a check asks, in order, as (line, premises,
        goal, failure text); a step goal that does not parse comes with
        goal None and ends the check.
        """
        assumption = doc.theorem.premise_assumption
        assumed = [] if assumption is None else [assumption]
        if not doc.proof:
            yield (
                shows_line(doc),
                [a.formula for a in doc.axioms] + assumed,
                doc.theorem.goal,
                "Failed to finish proof: goal is not entailed from the "
                "assumptions at domain bound %d" % self.domain_bound,
            )
            return
        failure = (
            "Failed to finish proof: step goal is not entailed at domain "
            "bound %d" % self.domain_bound
        )
        axioms = {a.name: a.formula for a in doc.axioms}
        previous: Optional[Formula] = None
        # A TheoryDoc refuses a citation it does not declare, so every
        # cited name is the assumption or an axiom.
        for line_no, step in zip(proof_step_lines(doc), doc.proof):
            premises: List[Formula] = []
            if step.kind is not StepKind.FROM_ASM_HAVE and previous is not None:
                premises.append(previous)
            for fact in step.facts_used:
                premises.extend(assumed if fact == ASSUMPTION_NAME else [axioms[fact]])
            if step.kind is StepKind.THEN_SHOW_THESIS:
                yield line_no, premises, doc.theorem.goal, failure
                continue
            try:
                previous = parse_inner_formula(step.goal_text)
            except TheoryParseError as exc:
                error = "Inner syntax error in proof step: %s" % exc
                yield line_no, premises, None, error
                return
            yield line_no, premises, previous, failure

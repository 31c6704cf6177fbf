"""Ground oracle verdicts cross-checked against a brute-force enumerator.

Every entailment fixture keeps the theory tiny (at most three axioms,
small domains) so the truth-table enumerator in helpers stays fast.
"""

import contextlib
import dataclasses
import itertools
import math
import random
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from verifine.logic import (
    And,
    Atom,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    PredicateSymbol,
    Variable,
    free_variables,
    parse_formula,
)
from verifine.prover import GroundOracle, oracle, start_session
from verifine.prover.messages import (
    ErrorClass,
    locate_failed_step,
)
from verifine.prover.oracle import (
    REPORTS_SIZE,
    VERDICTS_SIZE,
    OracleSession,
    OracleTimeout,
    entails,
)
from verifine.theory import (
    Axiom,
    ProofStep,
    StepKind,
    TheoremBlock,
    TheoryDoc,
    parse_theory,
    proof_step_lines,
)

from helpers import brute_entails, ground_atom_count
from test_theory import violin_doc


def make_doc(axiom_texts, premise_text, goal_text, proof=(), name="case_1"):
    """Assemble a small TheoryDoc from formula source strings."""
    axioms = tuple(
        Axiom("explanation_%d" % k, parse_formula(text))
        for k, text in enumerate(axiom_texts, start=1)
    )
    premise = parse_formula(premise_text) if premise_text else None
    theorem = TheoremBlock(premise, parse_formula(goal_text))
    return TheoryDoc(name, axioms, theorem, tuple(proof))


def test_make_doc_equals_its_reparse():
    # A premise predicate that first appears after the goal's in the
    # argument order still takes its place between axioms and goal.
    doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a) & R(a)", "exists x. S(x)")
    parsed = parse_theory(doc.rendered)
    assert [p.name for p in doc.predicates] == ["P", "Q", "R", "S"]
    assert parsed == doc
    assert parsed.rendered == doc.rendered


# label, axiom texts, premise text (or None), goal text, bound, expected
ENTAILMENT_CASES = [
    ("modus-ponens", ["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)", 2, True),
    (
        "two-step-chain",
        ["forall x. P(x) -> Q(x)", "forall x. Q(x) -> R(x)"],
        "P(a)",
        "exists x. R(x)",
        2,
        True,
    ),
    ("missing-link", ["forall x. P(x) -> Q(x)"], "P(a)", "exists x. R(x)", 2, False),
    ("converse", ["forall x. P(x) -> Q(x)"], "Q(a)", "exists x. P(x)", 2, False),
    (
        "unsatisfied-guard",
        ["forall x. P(x) & S(x) -> Q(x)"],
        "P(a)",
        "exists x. Q(x)",
        2,
        False,
    ),
    (
        "event-role",
        ["forall e x. Playing(e) & Agent(e, x) -> Musician(x)"],
        "Playing(e1) & Agent(e1, ann)",
        "exists x. Musician(x)",
        1,
        True,
    ),
    (
        "case-split",
        ["forall x. P(x) -> R(x)", "forall x. Q(x) -> R(x)"],
        "P(a) | Q(a)",
        "exists x. R(x)",
        1,
        True,
    ),
    (
        "disjunctive-conclusion",
        ["forall x. P(x) -> Q(x) | R(x)"],
        "P(a)",
        "exists x. Q(x)",
        1,
        False,
    ),
    (
        "contrapositive",
        ["forall x. P(x) -> Q(x)"],
        "~Q(a)",
        "exists x. ~P(x)",
        1,
        True,
    ),
    (
        "universal-goal-fresh-element",
        ["forall x. P(x) -> Q(x)"],
        "P(a)",
        "forall x. Q(x)",
        1,
        False,
    ),
    ("universal-restated", ["forall x. Q(x)"], None, "forall x. Q(x)", 3, True),
    (
        "symmetry-axiom",
        ["forall x, y. Near(x, y) -> Near(y, x)"],
        "Near(a, b)",
        "exists x, y. Near(x, y) & Near(y, x)",
        1,
        True,
    ),
    (
        "no-symmetry-without-axiom",
        [],
        "Near(a, b)",
        "exists x, y. Near(x, y) & Near(y, x)",
        1,
        False,
    ),
    ("tautology", [], None, "forall x. P(x) | ~P(x)", 2, True),
    (
        "contradictory-premise",
        ["forall x. P(x) -> Q(x)"],
        "P(a) & ~Q(a)",
        "exists x. R(x)",
        1,
        True,
    ),
    ("bare-witness", ["exists x. P(x)"], None, "forall x. P(x)", 2, False),
    (
        "witness-chained",
        ["exists x. P(x)", "forall x. P(x) -> Q(x)"],
        None,
        "exists x. Q(x)",
        2,
        True,
    ),
    (
        "negated-conjunction",
        ["forall x. ~(P(x) & Q(x))"],
        "P(a)",
        "exists x. ~Q(x)",
        1,
        True,
    ),
    (
        "two-variable-bridge",
        ["forall x, y. Woman(x) & Album(y) -> Sees(x, y)"],
        "Woman(w) & Album(b)",
        "exists x, y. Sees(x, y)",
        1,
        True,
    ),
    (
        "wrong-direction",
        ["forall x. Q(x) -> P(x)"],
        "P(a)",
        "exists x. Q(x)",
        2,
        False,
    ),
    (
        "conjunction-split",
        ["forall x. P(x) -> Q(x) & R(x)"],
        "P(a)",
        "exists x. R(x) & Q(x)",
        1,
        True,
    ),
    ("premise-disjunction", [], "P(a) | Q(a)", "exists x. P(x)", 1, False),
    (
        "implication-restated",
        ["forall x. P(x) -> Q(x)"],
        None,
        "forall x. P(x) -> Q(x)",
        3,
        True,
    ),
    (
        "nested-quantifiers",
        ["forall x. exists y. Agent(x, y)"],
        None,
        "exists x, y. Agent(x, y)",
        2,
        True,
    ),
    (
        "quantifier-order-matters",
        ["forall x. exists y. Agent(x, y)"],
        None,
        "exists y. forall x. Agent(x, y)",
        2,
        False,
    ),
]


class TestAgreementWithEnumerator:
    @pytest.mark.parametrize(
        "label,axiom_texts,premise_text,goal_text,bound,expected",
        ENTAILMENT_CASES,
        ids=[case[0] for case in ENTAILMENT_CASES],
    )
    def test_oracle_matches_enumerator(
        self, label, axiom_texts, premise_text, goal_text, bound, expected
    ):
        doc = make_doc(axiom_texts, premise_text, goal_text)
        premises = [a.formula for a in doc.axioms]
        if doc.theorem.premise_assumption is not None:
            premises.append(doc.theorem.premise_assumption)
        want = brute_entails(premises, doc.theorem.goal, bound)
        assert want is expected, "fixture %s mislabelled" % label
        report = OracleSession(bound).check_document(doc)
        assert (report.status == "valid") is want

    def test_corpus_size_and_budget(self):
        assert len(ENTAILMENT_CASES) >= 20
        started = time.monotonic()
        agreements = 0
        for label, axiom_texts, premise_text, goal_text, bound, _ in ENTAILMENT_CASES:
            doc = make_doc(axiom_texts, premise_text, goal_text)
            premises = [a.formula for a in doc.axioms]
            if doc.theorem.premise_assumption is not None:
                premises.append(doc.theorem.premise_assumption)
            want = brute_entails(premises, doc.theorem.goal, bound)
            got = OracleSession(bound).check_document(doc).status == "valid"
            agreements += got is want
        elapsed = time.monotonic() - started
        assert agreements == len(ENTAILMENT_CASES)
        assert elapsed < 10.0


class TestEntailsFunction:
    def test_minimum_domain_is_one(self):
        goal = parse_formula("forall x. P(x) | ~P(x)")
        assert entails([], goal, 0, math.inf) is True

    def test_domain_grows_with_free_names(self):
        # One free name plus one fresh element: a universal goal must
        # also hold on the element the premise never mentions.
        premise = parse_formula("P(a)")
        goal = parse_formula("forall x. P(x)")
        assert entails([premise], goal, 0, math.inf) is True
        assert entails([premise], goal, 1, math.inf) is False


class TestDirectCheckReports:
    def test_valid_report_has_no_messages(self):
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)")
        report = OracleSession(2).check_document(doc)
        assert report.status == "valid"
        assert report.messages == ()
        assert report.first_error is None
        assert report.elapsed >= 0.0

    def test_failed_report_pins_shows_line(self):
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. R(x)")
        report = OracleSession(2).check_document(doc)
        assert report.status == "failed"
        (message,) = report.messages
        assert message.severity == "error"
        assert (
            message.text
            == "Failed to finish proof: goal is not entailed from the "
            "assumptions at domain bound 2"
        )
        lines = doc.rendered.split("\n")
        assert lines[message.span.line - 1].startswith("  shows ")
        assert report.first_error[1] is ErrorClass.PROOF_FAILURE

    def test_failure_before_proof_block_maps_to_no_step(self):
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. R(x)")
        report = OracleSession(2).check_document(doc)
        assert locate_failed_step(report, doc) is None


class TestProofChecking:
    def test_violin_proof_is_valid(self):
        report = OracleSession(3).check_document(violin_doc())
        assert report.status == "valid"

    def test_failing_middle_step_pins_its_line(self):
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P a", ("asm",)),
            ProofStep(StepKind.THEN_HAVE, "R a", ("explanation_1",)),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ("asm",)),
        )
        doc = make_doc(
            ["forall x. P(x) -> Q(x)"], "P(a)", "exists x. R(x)", proof=steps
        )
        report = OracleSession(2).check_document(doc)
        assert report.status == "failed"
        (message,) = report.messages
        assert (
            message.text
            == "Failed to finish proof: step goal is not entailed at domain bound 2"
        )
        assert message.span.line == proof_step_lines(doc)[1]
        assert report.first_error[1] is ErrorClass.PROOF_FAILURE
        assert locate_failed_step(report, doc) == 1

    def test_steps_chain_previous_goal(self):
        # Step 2 cites only the axiom; it still sees step 1's conclusion.
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P a", ("asm",)),
            ProofStep(StepKind.THEN_HAVE, "Q a", ("explanation_1",)),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ()),
        )
        doc = make_doc(
            ["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)", proof=steps
        )
        report = OracleSession(2).check_document(doc)
        assert report.status == "valid"

    def test_from_asm_step_ignores_previous_goal(self):
        # A restart step citing nothing cannot lean on earlier conclusions.
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P a", ("asm",)),
            ProofStep(StepKind.FROM_ASM_HAVE, "P a \\<and> P a", ()),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ("asm",)),
        )
        doc = make_doc([], "P(a)", "exists x. P(x)", proof=steps)
        report = OracleSession(2).check_document(doc)
        assert report.status == "failed"
        assert report.messages[0].span.line == proof_step_lines(doc)[1]

    def test_unparseable_step_goal_reports_inner_syntax(self):
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P a \\<and>", ("asm",)),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ("asm",)),
        )
        doc = make_doc([], "P(a)", "exists x. P(x)", proof=steps)
        report = OracleSession(2).check_document(doc)
        assert report.status == "failed"
        (message,) = report.messages
        assert message.text.startswith("Inner syntax error in proof step:")
        assert message.span.line == proof_step_lines(doc)[0]
        assert report.first_error[1] is ErrorClass.OTHER_SYNTAX

    def test_asm_citation_with_absent_premise_is_inert(self):
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P a \\<or> \\<not> P a", ("asm",)),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ()),
        )
        doc = make_doc(
            [], None, "exists x. P(x) | ~P(x)", proof=steps
        )
        report = OracleSession(2).check_document(doc)
        assert report.status == "valid"


class TestSessionBehaviour:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            OracleSession(0)

    def test_close_marks_session(self):
        # A session holds nothing to release, so closing it keeps it
        # usable for the other problems it serves.
        session = OracleSession(1)
        session.close()
        assert session.usable
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)")
        assert session.check_document(doc).status == "valid"

    def test_zero_budget_times_out(self):
        doc = make_doc([], "P(a) | Q(a)", "exists x. R(x)")
        report = OracleSession(3).check_document(doc, timeout_s=0.0)
        assert report.status == "timeout"
        (message,) = report.messages
        assert message.text == "Timeout: solve budget of 0.0s exhausted"
        assert report.first_error[1] is ErrorClass.TIMEOUT


# ---------------------------------------------------------------------------
# The pool a session grounds over, and the verdicts it keeps

NAMES = ("a", "b")


def _formula(rng, depth, scope, fresh, quantifiers=True):
    """A random formula over P, Q and R whose atoms use names in `scope`;
    quantifiers bind fresh variables v1, v2, ..."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.75:
            pred = PredicateSymbol(rng.choice("PQ"), 1)
            return Atom(pred, (Variable(rng.choice(scope)),))
        pred = PredicateSymbol("R", 2)
        return Atom(pred, (Variable(rng.choice(scope)), Variable(rng.choice(scope))))
    if roll < 0.45:
        return Not(_formula(rng, depth - 1, scope, fresh, quantifiers))
    if roll < 0.8 or not quantifiers:
        cls = rng.choice((And, Or, Implies))
        return cls(
            _formula(rng, depth - 1, scope, fresh, quantifiers),
            _formula(rng, depth - 1, scope, fresh, quantifiers),
        )
    return _closed(rng, depth - 1, scope, fresh)


def _closed(rng, depth, scope, fresh):
    var = "v%d" % next(fresh)
    cls = rng.choice((Forall, Exists))
    return cls((Variable(var),), _formula(rng, depth, scope + [var], fresh))


def random_problem(seed):
    """(axioms, premise, goal) the way a theory holds them: closed axioms
    and goal, and a quantifier-free premise over the names a and b."""
    rng = random.Random(seed)
    fresh = itertools.count(1)
    axioms = [_closed(rng, 2, [], fresh) for _ in range(rng.randint(1, 2))]
    premise = _formula(rng, 2, list(NAMES), fresh, quantifiers=False)
    return axioms, premise, _closed(rng, 2, [], fresh)


def problem_doc(axioms, premise, goal):
    return TheoryDoc(
        "case_1",
        tuple(Axiom("explanation_%d" % k, f) for k, f in enumerate(axioms, 1)),
        TheoremBlock(premise, goal),
    )


def _nnf(f, negate=False):
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return _nnf(f.child, not negate)
    if isinstance(f, Implies):
        return _nnf(Or(Not(f.left), f.right), negate)
    if isinstance(f, (And, Or)):
        cls = type(f) if not negate else (Or if isinstance(f, And) else And)
        return cls(_nnf(f.left, negate), _nnf(f.right, negate))
    cls = type(f) if not negate else (Exists if isinstance(f, Forall) else Forall)
    return cls(f.vars, _nnf(f.body, negate))


def _existentials(f, under_universal=False):
    """Existential variables of a formula in negation normal form, or
    None when one sits under a universal."""
    if isinstance(f, (Atom, Not)):
        return 0
    if isinstance(f, (And, Or)):
        left = _existentials(f.left, under_universal)
        right = _existentials(f.right, under_universal)
        return None if left is None or right is None else left + right
    if isinstance(f, Forall):
        return _existentials(f.body, True)
    if under_universal:
        return None
    inner = _existentials(f.body, False)
    return None if inner is None else len(f.vars) + inner


def skolem_constants(premises, goal):
    """Outer existential variables of the premises and the negated goal,
    or None outside the Bernays–Schönfinkel fragment.  Written apart from
    the oracle's own walk: this one builds the negation normal form."""
    total = 0
    for f in [_nnf(p) for p in premises] + [_nnf(goal, negate=True)]:
        count = _existentials(f)
        if count is None:
            return None
        total += count
    return total


class RecordingEntails:
    """Stands in for `oracle.entails`: records each call's pool and can
    time out the first `timeouts` calls."""

    def __init__(self, timeouts=0):
        self.pools = []
        self.timeouts = timeouts

    def __call__(self, premises, goal, fresh_constants, deadline=None):
        self.pools.append(fresh_constants)
        if len(self.pools) <= self.timeouts:
            raise OracleTimeout()
        return entails(premises, goal, fresh_constants, deadline)


def check_recorded(doc, bound=3, timeouts=0, session=None):
    recorder = RecordingEntails(timeouts)
    session = session or OracleSession(bound)
    with mock.patch.object(oracle, "entails", recorder):
        report = session.check_document(doc)
    return report, recorder.pools


def premises_of(doc):
    return [a.formula for a in doc.axioms] + [doc.theorem.premise_assumption]


def assume_small_pool(doc, bound):
    """Keep a generated problem only if its session pool has at most three
    elements.  On four or more, a few generated problems in ten thousand
    take the solver seconds; these tests are about the pool and the
    verdicts kept, not the solver's speed."""
    fresh = skolem_constants(premises_of(doc), doc.theorem.goal)
    names = len(free_variables(doc.theorem.premise_assumption))
    assume(names + (bound if fresh is None else fresh) <= 3)


@contextlib.contextmanager
def spy_on_walks():
    """Records each document whose entailments a session walks."""
    walks = []
    walk = OracleSession._entailments

    def spy(session, doc):
        walks.append(doc)
        return walk(session, doc)

    with mock.patch.object(OracleSession, "_entailments", spy):
        yield walks


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestSessionPool:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_fragment_verdict_is_exact(self, seed):
        doc = problem_doc(*random_problem(seed))
        assume_small_pool(doc, 3)
        premises, goal = premises_of(doc), doc.theorem.goal
        fresh = skolem_constants(premises, goal)
        assume(fresh is not None)
        # Two elements more than the derived pool, if the enumerator
        # can afford them.
        assume(ground_atom_count(premises, goal, fresh + 2) <= 12)
        report, pools = check_recorded(doc)
        assert pools == [fresh]
        want = brute_entails(premises, goal, fresh + 2)
        assert (report.status == "valid") is want

    @settings(max_examples=50, deadline=None)
    @given(SEEDS, st.integers(1, 2))
    def test_existential_under_universal_keeps_domain_bound(self, seed, bound):
        axioms, premise, goal = random_problem(seed)
        rng = random.Random(seed)
        body = _formula(rng, 1, ["u", "w"], itertools.count(1))
        nested = Forall((Variable("u"),), Exists((Variable("w"),), body))
        doc = problem_doc(axioms + [nested], premise, goal)
        assert skolem_constants(premises_of(doc), goal) is None
        assume_small_pool(doc, bound)
        _, pools = check_recorded(doc, bound)
        assert pools == [bound]

    @pytest.mark.parametrize(
        "goal_text,pool,status",
        [("exists x. Q(x)", 0, "valid"), ("forall x. Q(x)", 1, "failed")],
    )
    def test_negated_goal_universal_is_one_skolem_constant(
        self, goal_text, pool, status
    ):
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", goal_text)
        report, pools = check_recorded(doc, bound=3)
        assert pools == [pool]
        assert report.status == status


class TestSessionVerdicts:
    @settings(max_examples=50, deadline=None)
    @given(SEEDS)
    def test_repeated_check_decides_once(self, seed):
        doc = problem_doc(*random_problem(seed))
        assume_small_pool(doc, 2)
        session = OracleSession(2)
        first, pools = check_recorded(doc, session=session)
        assert len(pools) == 1
        # The same document, and an equal one built from its text.
        for again in (doc, parse_theory(doc.rendered)):
            with spy_on_walks() as walks:
                report, pools = check_recorded(again, session=session)
            assert pools == []
            # Answered from the session's reports, without a walk.
            assert walks == []
            assert report.status == first.status
            assert report.messages == first.messages
            assert report.first_error == first.first_error

    @settings(max_examples=50, deadline=None)
    @given(SEEDS)
    def test_timed_out_check_is_asked_again(self, seed):
        doc = problem_doc(*random_problem(seed))
        assume_small_pool(doc, 2)
        session = OracleSession(2)
        report, pools = check_recorded(doc, timeouts=1, session=session)
        assert report.status == "timeout"
        report, pools = check_recorded(doc, session=session)
        assert len(pools) == 1
        assert report.status in ("valid", "failed")

    def test_proof_step_recurring_in_a_later_round_is_not_regrounded(self):
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P a", ("asm",)),
            ProofStep(StepKind.THEN_HAVE, "Q a", ("explanation_1",)),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ()),
        )
        doc = make_doc(
            ["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)", proof=steps
        )
        session = OracleSession(3)
        _, pools = check_recorded(doc, session=session)
        assert len(pools) == 3
        # The next round states the same explanation with one step changed.
        changed = doc.with_proof(
            (ProofStep(StepKind.FROM_ASM_HAVE, "P a \\<and> P a", ("asm",)),)
            + steps[1:]
        )
        report, pools = check_recorded(parse_theory(changed.rendered), session=session)
        assert report.status == "valid"
        assert len(pools) == 2


def check_each(sessions, doc, timeouts=0):
    """Check `doc` once in each session, all under one recorder."""
    recorder = RecordingEntails(timeouts)
    with mock.patch.object(oracle, "entails", recorder):
        reports = [session.check_document(doc) for session in sessions]
    return reports, recorder.pools


def numbered_doc(k):
    """Modus ponens on the constant c<k>; valid when k is even."""
    goal = "exists x. Q(x)" if k % 2 == 0 else "exists x. R(x)"
    return make_doc(["forall x. P(x) -> Q(x)"], "P(c%d)" % k, goal)


class TestVerdictsAcrossSessions:
    def test_sessions_of_one_backend_decide_once(self):
        # What run_batch hands its problems on the ground oracle.
        backend = OracleSession(3)
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)")
        first, second = start_session(backend), start_session(backend)
        assert first is second is backend
        reports, pools = check_each([first], doc)
        assert pools == [0]
        # Another problem's session, given an equal document of its own.
        again, pools = check_each([second], parse_theory(doc.rendered))
        assert pools == []
        assert [r.status for r in reports + again] == ["valid", "valid"]

    def test_equal_backends_do_not_share(self):
        # A GroundOracle is a plain value: equal ones behave alike, and
        # the sessions each opens share nothing.
        one, other = GroundOracle(3), GroundOracle(3)
        assert one == other and hash(one) == hash(other)
        assert [f.name for f in dataclasses.fields(GroundOracle)] == ["domain_bound"]
        assert vars(one) == {"domain_bound": 3}
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)")
        _, pools = check_each([start_session(one), start_session(other)], doc)
        assert pools == [0, 0]

    def test_bare_sessions_keep_their_own_verdicts(self):
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)")
        _, pools = check_each([OracleSession(3), OracleSession(3)], doc)
        assert pools == [0, 0]

    def test_timed_out_entailment_is_asked_again_by_the_next_session(self):
        backend = OracleSession(3)
        doc = make_doc(["forall x. P(x) -> Q(x)"], "P(a)", "exists x. Q(x)")
        sessions = [start_session(backend) for _ in range(3)]
        reports, pools = check_each(sessions, doc, timeouts=1)
        assert [r.status for r in reports] == ["timeout", "valid", "valid"]
        assert pools == [0, 0]

    def test_a_full_table_drops_its_oldest_verdict(self, monkeypatch):
        monkeypatch.setattr(oracle, "VERDICTS_SIZE", 4)
        session = OracleSession(3)
        for k in range(10):
            reports, pools = check_each([session], numbered_doc(k))
            assert pools == [0]
            assert reports[0].status == ("valid" if k % 2 == 0 else "failed")
            assert len(session._verdicts) == min(k + 1, 4)
        # The newest four are kept; the first was dropped and is decided
        # again, which drops the next oldest.
        _, pools = check_each([session], numbered_doc(9))
        assert pools == []
        reports, pools = check_each([session], numbered_doc(0))
        assert pools == [0] and reports[0].status == "valid"
        assert len(session._verdicts) == 4
        assert 1000 <= VERDICTS_SIZE < 100000

    def test_a_full_report_table_drops_its_oldest_theory(self):
        session = OracleSession(3)
        for k in range(REPORTS_SIZE + 10):
            session.check_document(numbered_doc(k))
            assert len(session._reports) == min(k + 1, REPORTS_SIZE)
        # The newest theory is answered from its report; the first was
        # dropped and is walked again, its verdict still in the table.
        with spy_on_walks() as walks:
            _, pools = check_each([session], numbered_doc(REPORTS_SIZE + 9))
        assert walks == [] and pools == []
        with spy_on_walks() as walks:
            reports, pools = check_each([session], numbered_doc(0))
        assert len(walks) == 1 and pools == []
        assert reports[0].status == "valid"
        assert len(session._reports) == REPORTS_SIZE

    def test_threads_share_one_table(self, monkeypatch):
        # What run_batch does with its one session, but a small table, so
        # the threads also drop verdicts and reports while others insert
        # them.
        monkeypatch.setattr(oracle, "VERDICTS_SIZE", 8)
        session = OracleSession(3)
        docs = [numbered_doc(k) for k in range(24)]
        statuses = [[] for _ in range(6)]

        def work(out):
            for doc in docs:
                out.append(session.check_document(doc).status)

        threads = [threading.Thread(target=work, args=(out,)) for out in statuses]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        want = ["valid" if k % 2 == 0 else "failed" for k in range(24)]
        assert statuses == [want] * 6
        assert len(session._verdicts) == 8
        # The report table is bounded by the verdict table's size too.
        assert len(session._reports) == 8


def _brute_satisfiable(clauses, nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


class TestSolver:
    @settings(max_examples=300, deadline=None)
    @given(SEEDS)
    def test_agrees_with_truth_tables(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 8)
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width)]
            for width in [rng.randint(1, 3) for _ in range(rng.randint(1, 4 * nvars))]
        ]
        assert oracle._satisfiable(clauses, nvars, math.inf) is _brute_satisfiable(
            clauses, nvars
        )


def solver_input(premises, goal, fresh):
    """The clauses `entails` hands the solver, with the count of variables
    it asks to be decided and the count of all variables."""
    seen = []
    solve = oracle._satisfiable

    def record(clauses, nvars, deadline):
        seen.append((clauses, nvars))
        return solve(clauses, nvars, deadline)

    with mock.patch.object(oracle, "_satisfiable", record):
        entails(premises, goal, fresh, math.inf)
    ((clauses, atoms),) = seen
    return clauses, atoms, max(abs(lit) for clause in clauses for lit in clause)


def _alternating(rng, depth, cls=Or):
    """A quantifier-free formula over P and Q whose conjunctions and
    disjunctions alternate, so its clauses nest definitions in definitions."""
    if depth == 0 or rng.random() < 0.25:
        pred = PredicateSymbol(rng.choice("PQ"), 1)
        atom = Atom(pred, (Variable(rng.choice(NAMES)),))
        return Not(atom) if rng.random() < 0.5 else atom
    other = And if cls is Or else Or
    return cls(_alternating(rng, depth - 1, other), _alternating(rng, depth - 1, other))


class TestAtomSearch:
    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_deciding_atoms_agrees_with_truth_tables(self, seed):
        axioms, premise, goal = random_problem(seed)
        rng = random.Random(seed + 1)
        premises = axioms + [premise, _alternating(rng, 4)]
        clauses, atoms, nvars = solver_input(premises, goal, 1)
        assume(nvars <= 12)
        # The contract `_satisfiable` states for the variables it leaves open.
        for clause in clauses:
            assert sum(lit < -atoms for lit in clause) <= 1
        # Fixing some atoms leads propagation into the nested definitions.
        clauses += [
            [rng.choice((var, -var))]
            for var in range(1, atoms + 1)
            if rng.random() < 0.7
        ]
        assert oracle._satisfiable(clauses, atoms, math.inf) is _brute_satisfiable(
            clauses, nvars
        )

    def test_nested_definitions_stay_one_sided(self):
        # Two disjuncts each name a conjunction that holds a disjunction
        # naming another conjunction; the atoms make every disjunct false.
        nested = parse_formula(
            "P(a) | ((Q(a) | (R(a) & S(a))) & T(a)) | ((Q(b) | (R(b) & S(b))) & T(b))"
        )
        facts = parse_formula(
            "~P(a) & ~Q(a) & ~Q(b) & ~R(a) & ~R(b) & S(a) & S(b) & T(a) & T(b)"
        )
        goal = parse_formula("exists x. Z(x)")
        clauses, atoms, nvars = solver_input([nested, facts], goal, 0)
        assert atoms < nvars
        for clause in clauses:
            assert sum(lit < -atoms for lit in clause) <= 1
        assert entails([nested, facts], goal, 0, math.inf)
        assert brute_entails([nested, facts], goal, 0)

    def test_tautological_goal_under_existential_axioms_is_quick(self):
        # Branching on the auxiliaries as well as the atoms takes this
        # check past 20 s.
        doc = problem_doc(*random_problem(1303))
        premises, goal = premises_of(doc), doc.theorem.goal
        fresh = skolem_constants(premises, goal)
        assert fresh == 4
        assert entails(premises, goal, fresh, deadline=time.monotonic() + 2)

    def test_generated_problem_is_decided_within_its_budget(self):
        doc = problem_doc(*random_problem(1721))
        report = OracleSession(3).check_document(doc, timeout_s=5)
        assert report.status == "failed"


@pytest.mark.parametrize(
    "text,neg,tree",
    [
        ("P(a) & Q(a)", False, ("and", [("lit", 1), ("lit", 2)])),
        ("P(a) & Q(a)", True, ("or", [("lit", -1), ("lit", -2)])),
        ("P(a) | Q(a)", False, ("or", [("lit", 1), ("lit", 2)])),
        ("P(a) | Q(a)", True, ("and", [("lit", -1), ("lit", -2)])),
        ("P(a) -> Q(a)", False, ("or", [("lit", -1), ("lit", 2)])),
        ("P(a) -> Q(a)", True, ("and", [("lit", 1), ("lit", -2)])),
        (
            "(P(a) -> Q(a)) & ~(Q(a) | P(a) & R(a))",
            False,
            (
                "and",
                [
                    ("or", [("lit", -1), ("lit", 2)]),
                    ("lit", -2),
                    ("or", [("lit", -1), ("lit", -3)]),
                ],
            ),
        ),
        (
            "(P(a) -> Q(a)) & ~(Q(a) | P(a) & R(a))",
            True,
            (
                "or",
                [
                    ("and", [("lit", 1), ("lit", -2)]),
                    ("lit", 2),
                    ("and", [("lit", 1), ("lit", 3)]),
                ],
            ),
        ),
    ],
)
def test_binary_connectives_ground_by_polarity(text, neg, tree):
    grounder = oracle._Grounder(1, math.inf)
    assert grounder.ground(parse_formula(text), {"a": 0}, neg) == tree


def width4_problem():
    """Four axioms over four variables and ten named constants: about a
    second of grounding at three fresh elements."""
    axioms = [
        "forall e x y z. P0(e) & P1(x) & R%d(e, x, y) -> Q%d(z)" % (i, i)
        for i in range(4)
    ]
    premise = " & ".join("P0(c%d) & P1(c%d)" % (i, i) for i in range(10))
    return make_doc(axioms, premise, "exists x. S(x)")


class TestGroundingDeadline:
    def test_grounding_raises_past_the_deadline(self):
        doc = width4_problem()
        started = time.monotonic()
        with pytest.raises(OracleTimeout):
            entails(premises_of(doc), doc.theorem.goal, 3, deadline=started + 0.1)
        assert time.monotonic() - started < 0.3

    def test_session_reports_timeout_while_grounding(self):
        started = time.monotonic()
        report = OracleSession(3).check_document(width4_problem(), timeout_s=0.1)
        assert report.status == "timeout"
        assert time.monotonic() - started < 0.3

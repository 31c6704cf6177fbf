"""Ground oracle verdicts cross-checked against a brute-force enumerator.

Every entailment fixture keeps the theory tiny (at most three axioms,
small domains) so the truth-table enumerator in helpers stays fast.
"""

import time

import pytest

from verifine.logic import parse_formula
from verifine.prover.messages import (
    ErrorClass,
    locate_failed_step,
)
from verifine.prover.oracle import OracleSession, entails
from verifine.theory import (
    Axiom,
    ProofStep,
    StepKind,
    TheoremBlock,
    TheoryDoc,
    parse_theory,
    proof_step_lines,
)

from helpers import brute_entails
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
        assert entails([], goal, 0) is True

    def test_domain_grows_with_free_names(self):
        # One free name plus one fresh element: a universal goal must
        # also hold on the element the premise never mentions.
        premise = parse_formula("P(a)")
        goal = parse_formula("forall x. P(x)")
        assert entails([premise], goal, 0) is True
        assert entails([premise], goal, 1) is False


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
        session = OracleSession(1)
        session.close()
        assert session.closed

    def test_zero_budget_times_out(self):
        doc = make_doc([], "P(a) | Q(a)", "exists x. R(x)")
        report = OracleSession(3).check_document(doc, timeout_s=0.0)
        assert report.status == "timeout"
        (message,) = report.messages
        assert message.text == "Timeout: solve budget of 0.0s exhausted"
        assert report.first_error[1] is ErrorClass.TIMEOUT

"""Classification of prover messages into error classes."""

import pytest

from verifine.prover.messages import (
    CheckReport,
    ErrorClass,
    ProverMessage,
    Span,
    build_report,
    classify_error,
    load_error_patterns,
    locate_failed_step,
    pick_first_error,
    syntax_error_count,
)

from test_theory import violin_doc


def err(text, span=None):
    return ProverMessage("error", text, span)


# Canned messages in the shapes real prover output takes, each with the
# class a triage pass should assign.  Kept well above twelve entries.
CANNED = [
    (
        'Type unification failed: Clash of types "entity" and "event"',
        ErrorClass.TYPE_UNIFICATION,
    ),
    (
        "Type unification failed: occurs check!",
        ErrorClass.TYPE_UNIFICATION,
    ),
    (
        'Type error in application: incompatible operand type\n\n'
        'Operator:  Agent :: entity \\<Rightarrow> entity \\<Rightarrow> bool',
        ErrorClass.TYPE_UNIFICATION,
    ),
    (
        "Operator not of function type: Woman x",
        ErrorClass.TYPE_UNIFICATION,
    ),
    (
        "Failed to finish proof\\<^here>:\ngoal (1 subgoal):\n 1. False",
        ErrorClass.PROOF_FAILURE,
    ),
    (
        "Failed to apply initial proof method\\<^here>:",
        ErrorClass.PROOF_FAILURE,
    ),
    ("empty result sequence -- proof command failed: tactic failed", ErrorClass.PROOF_FAILURE),
    ("Proof unfinished at command exit", ErrorClass.PROOF_FAILURE),
    ("Unfinished theory at end of file", ErrorClass.PROOF_FAILURE),
    ('Inner syntax error\\<^here>: unexpected end of input', ErrorClass.OTHER_SYNTAX),
    ("Outer syntax error: command expected", ErrorClass.OTHER_SYNTAX),
    ("Inner lexical error at: $foo", ErrorClass.OTHER_SYNTAX),
    ("Malformed command syntax", ErrorClass.OTHER_SYNTAX),
    ('Undefined type name: "entityy"', ErrorClass.OTHER_SYNTAX),
    ('Undeclared constant: "Perusing"', ErrorClass.OTHER_SYNTAX),
    ("Undefined fact: 'explanation_9'", ErrorClass.OTHER_SYNTAX),
    ("Ambiguous input produces 2 parse trees", ErrorClass.OTHER_SYNTAX),
    ("Timeout after 65 seconds", ErrorClass.TIMEOUT),
    ("Interrupt (exceeded resource budget)", ErrorClass.TIMEOUT),
    ("Connection timed out while waiting", ErrorClass.TIMEOUT),
]


class TestCannedMessages:
    def test_corpus_is_large_enough(self):
        assert len(CANNED) >= 12

    @pytest.mark.parametrize(
        "text,expected", CANNED, ids=[c[1].value + "-%d" % i for i, c in enumerate(CANNED)]
    )
    def test_each_message_classified(self, text, expected):
        assert classify_error(err(text)) is expected

    def test_full_corpus_accuracy(self):
        hits = sum(
            classify_error(err(text)) is expected for text, expected in CANNED
        )
        assert hits == len(CANNED)


class TestTableSemantics:
    def test_matching_is_case_insensitive(self):
        assert classify_error(err("TYPE UNIFICATION FAILED")) is (
            ErrorClass.TYPE_UNIFICATION
        )

    def test_first_matching_row_wins(self):
        # "timeout" precedes every other row, so a mixed message that
        # mentions both a timeout and a proof failure counts as timeout.
        text = "Timeout: failed to finish proof within budget"
        assert classify_error(err(text)) is ErrorClass.TIMEOUT

    def test_table_rows_are_ordered_pairs(self):
        patterns = load_error_patterns()
        assert len(patterns) >= 12
        assert patterns[0][1] is ErrorClass.TIMEOUT
        for needle, cls in patterns:
            assert needle == needle.lower()
            assert isinstance(cls, ErrorClass)


class TestSpanFallback:
    def test_unmatched_text_without_span_is_unknown(self):
        assert classify_error(err("something nonspecific")) is ErrorClass.UNKNOWN

    def test_unmatched_span_before_proof_is_syntax(self):
        span = Span(3, 10, 20)
        assert classify_error(err("garbled", span), (30, 34)) is (
            ErrorClass.OTHER_SYNTAX
        )

    def test_unmatched_span_without_region_is_syntax(self):
        span = Span(3, 10, 20)
        assert classify_error(err("garbled", span), None) is ErrorClass.OTHER_SYNTAX

    def test_unmatched_span_inside_proof_is_unknown(self):
        span = Span(31, 400, 410)
        assert classify_error(err("garbled", span), (30, 34)) is ErrorClass.UNKNOWN


class TestFirstErrorSelection:
    def test_smallest_start_offset_wins(self):
        a = err("later", Span(9, 140, 150))
        b = err("earlier", Span(4, 60, 70))
        note = ProverMessage("warning", "ignored", Span(1, 1, 5))
        assert pick_first_error([a, b, note]) is b

    def test_spanless_errors_sort_last(self):
        spanless = err("no position")
        positioned = err("positioned", Span(2, 30, 40))
        assert pick_first_error([spanless, positioned]) is positioned

    def test_all_spanless_takes_first(self):
        first = err("one")
        second = err("two")
        assert pick_first_error([first, second]) is first

    def test_no_errors_returns_none(self):
        assert pick_first_error([ProverMessage("info", "fine")]) is None


class TestReports:
    def test_build_report_classifies_first_error(self):
        doc = violin_doc()
        msg = err("Failed to finish proof", Span(2, 10, 20))
        report = build_report("failed", [msg], 0.1, doc)
        assert report.first_error == (msg, ErrorClass.PROOF_FAILURE)

    def test_valid_report_rejects_errors(self):
        with pytest.raises(ValueError):
            CheckReport(status="valid", elapsed=0.0, messages=(err("boom"),))

    def test_failed_report_requires_an_error(self):
        with pytest.raises(ValueError):
            CheckReport(status="failed", elapsed=0.0, messages=())

    def test_syntax_error_count_mixes_classes(self):
        doc = violin_doc()
        messages = [
            err("Inner syntax error at line 4", Span(4, 50, 60)),
            err('Type unification failed: Clash of types "a" and "b"'),
            err("Failed to finish proof"),
        ]
        report = build_report("failed", messages, 0.2, doc)
        assert syntax_error_count(report, doc) == 2


class TestLocateFailedStep:
    def test_valid_report_raises(self):
        doc = violin_doc()
        with pytest.raises(ValueError):
            locate_failed_step(build_report("valid", [], 0.0, doc), doc)

    def test_spanless_error_yields_none(self):
        doc = violin_doc()
        report = build_report("failed", [err("Undefined fact: 'x'")], 0.0, doc)
        assert locate_failed_step(report, doc) is None

    def test_error_before_proof_yields_none(self):
        doc = violin_doc()
        report = build_report("failed", [err("boom", Span(2, 20, 30))], 0.0, doc)
        assert locate_failed_step(report, doc) is None

    def test_error_on_proof_opener_is_step_zero(self):
        from verifine.theory import proof_region

        doc = violin_doc()
        opener = proof_region(doc)[0]
        report = build_report("failed", [err("boom", Span(opener, 1, 2))], 0.0, doc)
        assert locate_failed_step(report, doc) == 0

    def test_error_on_a_step_line_is_that_step(self):
        from verifine.theory import proof_step_lines

        doc = violin_doc()
        for index, line in enumerate(proof_step_lines(doc)):
            report = build_report("failed", [err("boom", Span(line, 1, 2))], 0.0, doc)
            assert locate_failed_step(report, doc) == index

    def test_error_on_qed_or_after_yields_none(self):
        from verifine.theory import proof_region

        doc = violin_doc()
        qed = proof_region(doc)[1]
        for line in (qed, qed + 1):
            report = build_report("failed", [err("boom", Span(line, 1, 2))], 0.0, doc)
            assert locate_failed_step(report, doc) is None

    def test_error_line_outside_text_yields_none(self):
        doc = violin_doc()
        report = build_report("failed", [err("boom", Span(999, 1, 2))], 0.0, doc)
        assert locate_failed_step(report, doc) is None

    def test_proofless_doc_yields_none(self):
        doc = violin_doc().without_proof()
        report = build_report(
            "failed", [err("boom", Span(3, 40, 50))], 0.0, doc
        )
        assert locate_failed_step(report, doc) is None

"""Theory documents: construction, rendering, spans, parsing back."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import formula_strategy
from verifine.logic import (
    ArityConflict,
    Exists,
    Forall,
    PredicateSymbol,
    Variable,
    free_variables,
    has_quantifier,
    parse_formula,
    render_formula,
)
from verifine.theory import (
    Axiom,
    DanglingFactReference,
    MalformedPremise,
    OpenFormula,
    ProofStep,
    StepKind,
    TheoremBlock,
    TheoryDoc,
    TheoryError,
    TheoryParseError,
    isabelle_formula,
    line_span,
    parse_inner_formula,
    parse_proof_block,
    parse_proof_line,
    parse_theory,
    proof_region,
    proof_step_lines,
    render_theory,
    shows_line,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def violin_doc() -> TheoryDoc:
    exp1 = parse_formula("forall x. (Violin(x) -> Instrument(x))")
    prem = parse_formula(
        "Woman(x) & Violin(y) & Background(z) & Turquoise(z) & Smiling(x) & "
        "Playing(e) & Agent(e, x) & Patient(e, y) & InFrontOf(x, z)"
    )
    goal = parse_formula(
        "exists x y e. (Woman(x) & Instrument(y) & Playing(e) & "
        "Agent(e, x) & Patient(e, y))"
    )
    axioms = (Axiom("explanation_1", exp1, "A violin is an instrument."),)
    theorem = TheoremBlock(
        prem,
        goal,
        "A smiling woman is playing the violin in front of a turquoise background.",
        "A woman is playing an instrument.",
    )
    steps = (
        ProofStep(
            StepKind.FROM_ASM_HAVE,
            "Woman x \\<and> Violin y \\<and> Playing e \\<and> Agent e x "
            "\\<and> Patient e y",
            ("asm",),
        ),
        ProofStep(
            StepKind.THEN_HAVE,
            "Woman x \\<and> Instrument y \\<and> Playing e \\<and> Agent e x "
            "\\<and> Patient e y",
            ("explanation_1",),
        ),
        ProofStep(StepKind.THEN_SHOW_THESIS, "", ("asm",)),
    )
    return TheoryDoc(name="violin_1", axioms=axioms, theorem=theorem, proof=steps)


def sentence_doc(source="", premise_text="", name="sentences", proof=()):
    """Two axioms over P and Q; the first carries `source` as its
    sentence and the premise comment carries `premise_text`."""
    rule = parse_formula("forall x. (P(x) -> Q(x))")
    premise = parse_formula("P(a)")
    goal = parse_formula("exists x. Q(x)")
    return TheoryDoc(
        name,
        (Axiom("explanation_1", rule, source), Axiom("explanation_2", rule)),
        TheoremBlock(premise, goal, premise_text, "Something is Q."),
        proof,
    )


class TestBuilders:
    """Each building block refuses what it cannot hold."""

    def test_open_fact_formula_rejected(self):
        with pytest.raises(OpenFormula) as info:
            Axiom("explanation_9", parse_formula("P(x)"), "open")
        assert info.value.fact_id == "explanation_9"
        assert info.value.names == ("x",)

    def test_axiom_name_shape_is_enforced(self):
        f = parse_formula("forall x. P(x)")
        with pytest.raises(TheoryError):
            Axiom("explanation_0", f)
        with pytest.raises(TheoryError):
            Axiom("lemma_1", f)

    def test_premise_must_be_quantifier_free(self):
        with pytest.raises(MalformedPremise):
            TheoremBlock(
                parse_formula("forall x. P(x)"), parse_formula("exists x. P(x)")
            )

    def test_hypothesis_must_be_closed(self):
        with pytest.raises(OpenFormula) as info:
            TheoremBlock(parse_formula("P(x)"), parse_formula("Q(y)"))
        assert info.value.fact_id == "hypothesis"

    def test_premise_may_be_absent(self):
        block = TheoremBlock(None, parse_formula("exists x. P(x)"))
        assert block.premise_assumption is None

    def test_predicates_follow_axioms_premise_goal(self):
        doc = TheoryDoc(
            "t",
            (Axiom("explanation_1", parse_formula("forall x. Q(x) -> P(x)")),),
            TheoremBlock(parse_formula("R(a) & P(a)"), parse_formula("exists x. S(x)")),
        )
        assert doc.predicates == tuple(
            PredicateSymbol(name, 1) for name in ("Q", "P", "R", "S")
        )

    def test_arity_clash_across_formulas_rejected(self):
        with pytest.raises(ArityConflict) as info:
            TheoryDoc(
                "t",
                (Axiom("explanation_1", parse_formula("forall x. P(x)")),),
                TheoremBlock(None, parse_formula("exists x y. P(x, y)")),
            )
        assert (info.value.name, info.value.locations) == ("P", (0, 1))

    def test_proof_must_end_with_show_thesis(self):
        doc = violin_doc()
        with pytest.raises(TheoryError):
            doc.with_proof(
                (ProofStep(StepKind.FROM_ASM_HAVE, "P x", ("asm",)),)
            )


class TestInnerSyntax:
    def test_atoms_are_application_style(self):
        assert isabelle_formula(parse_formula("Agent(e, x)")) == "Agent e x"

    def test_connectives_use_escapes(self):
        f = parse_formula("forall x. (P(x) -> ~Q(x) | R(x))")
        assert (
            isabelle_formula(f)
            == "\\<forall>x. P x \\<longrightarrow> \\<not> Q x \\<or> R x"
        )

    def test_parse_inner_inverts_render(self):
        for text in (
            "forall x y. (Agent(x, y) -> P(x))",
            "exists e. (Playing(e) & Agent(e, x))",
            "~(P(x) | Q(x))",
        ):
            f = parse_formula(text)
            assert parse_inner_formula(isabelle_formula(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(formula_strategy())
    def test_parse_inner_inverts_both_renderings(self, f):
        assert parse_inner_formula(isabelle_formula(f)) == f
        assert parse_inner_formula(render_formula(f)) == f

    def test_parse_inner_accepts_canonical_call_style(self):
        assert parse_inner_formula("Agent(e, x)") == parse_formula("Agent(e, x)")

    def test_parse_inner_maps_primes_to_underscores(self):
        f = parse_inner_formula("P x'")
        assert Variable("x_") in set(f.args)

    def test_bare_identifier_rejected(self):
        with pytest.raises(TheoryParseError, match="expected argument name at byte 1"):
            parse_inner_formula("P")

    @pytest.mark.parametrize(
        "text",
        ["(" * 200 + "P(x)" + ")" * 200, "¬" * 2000 + "P(x)"],
        ids=["parentheses", "negations"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(TheoryParseError, match="nested too deeply"):
            parse_inner_formula(text)


class TestProofRendering:
    def test_three_step_forms(self):
        doc = sentence_doc(proof=(
            ProofStep(StepKind.FROM_ASM_HAVE, "P x", ("asm", "explanation_1")),
            ProofStep(StepKind.THEN_HAVE, "Q x", ("asm", "explanation_2")),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ()),
        ))
        lines = doc.rendered.split("\n")
        assert [lines[n - 1] for n in proof_step_lines(doc)] == [
            '  from asm have "P x" using explanation_1 by blast',
            '  then have "Q x" using asm explanation_2 by blast',
            "  then show ?thesis by blast",
        ]

    def test_dangling_reference_is_rejected(self):
        # A document whose proof cites an undeclared fact is refused when
        # it is built, whether directly or through with_proof.
        doc = violin_doc()
        steps = doc.proof[:1] + (
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ("explanation_7",)),
        )
        for build in (
            lambda: TheoryDoc(doc.name, doc.axioms, doc.theorem, steps),
            lambda: doc.with_proof(steps),
        ):
            with pytest.raises(DanglingFactReference) as info:
                build()
            assert (info.value.step_index, info.value.name) == (1, "explanation_7")

    def test_parse_proof_line_inverts_rendering(self):
        steps = (
            ProofStep(StepKind.FROM_ASM_HAVE, "P x", ("asm",)),
            ProofStep(StepKind.THEN_HAVE, "Q x", ("explanation_1",)),
            ProofStep(StepKind.THEN_SHOW_THESIS, "", ("asm",)),
        )
        doc = sentence_doc(proof=steps)
        lines = doc.rendered.split("\n")
        parsed = tuple(parse_proof_line(lines[n - 1]) for n in proof_step_lines(doc))
        assert parsed == steps

    def test_parse_proof_line_rejects_garbage(self):
        assert parse_proof_line("  apply auto") is None


class TestProofBlock:
    STEPS = (
        'from asm have "P x" by blast',
        'then have "Q x" using explanation_1 by blast',
        "then show ?thesis using asm by blast",
    )

    def test_opener_blank_lines_and_qed_frame_the_same_steps(self):
        bare = parse_proof_block("\n".join(self.STEPS))
        wrapped = parse_proof_block(
            "proof -\n\n  " + "\n  ".join(self.STEPS) + "\nqed\n"
        )
        assert wrapped == bare
        assert [s.kind for s in bare] == [
            StepKind.FROM_ASM_HAVE,
            StepKind.THEN_HAVE,
            StepKind.THEN_SHOW_THESIS,
        ]

    def test_reading_stops_at_qed(self):
        text = "\n".join(self.STEPS) + "\nqed\n\nend\n"
        assert len(parse_proof_block(text)) == 3

    def test_unrecognised_line_is_named(self):
        with pytest.raises(TheoryParseError, match="proof line: 'apply auto'"):
            parse_proof_block("  apply auto\n" + self.STEPS[2])

    @pytest.mark.parametrize("text", ["", "qed", STEPS[0]])
    def test_last_step_must_show_the_thesis(self, text):
        with pytest.raises(TheoryParseError, match="must close with `then show"):
            parse_proof_block(text)


class TestGoldenRendering:
    def test_violin_theory_matches_golden_file(self):
        with open(
            os.path.join(DATA, "violin_golden.thy"), "r", encoding="utf-8"
        ) as fh:
            golden = fh.read()
        assert violin_doc().rendered == golden

    def test_axiom_block_content(self):
        text = violin_doc().rendered
        assert (
            'explanation_1: "\\<forall>x. Violin x \\<longrightarrow> '
            'Instrument x"' in text
        )
        assert "(* Explanation 1: A violin is an instrument. *)" in text

    def test_theorem_block_content(self):
        text = violin_doc().rendered
        assert "theorem hypothesis:" in text
        assert '  assumes asm: "Woman x \\<and> Violin y' in text
        assert '  shows "\\<exists>x y e. Woman x' in text

    def test_second_step_cites_first_explanation(self):
        lines = violin_doc().rendered.split("\n")
        step_lines = [
            l
            for l in lines
            if l.startswith(("  from asm have", "  then have", "  then show"))
        ]
        assert len(step_lines) == 3
        assert step_lines[1].endswith("using explanation_1 by blast")

    def test_absent_premise_renders_true(self):
        doc = TheoryDoc(
            name="no_premise",
            axioms=(),
            theorem=TheoremBlock(None, parse_formula("exists x. P(x)")),
        )
        assert '  assumes asm: "True"' in doc.rendered

    def test_comment_terminator_in_source_text_is_defused(self):
        f = parse_formula("forall x. P(x)")
        doc = TheoryDoc(
            name="tricky",
            axioms=(Axiom("explanation_1", f, "weird *) text"),),
            theorem=TheoremBlock(None, parse_formula("exists x. P(x)")),
        )
        assert "*) text" not in doc.rendered.split("shows")[0].split("(* Expl")[1]
        assert parse_theory(doc.rendered).name == "tricky"


class TestSpans:
    def test_line_span_offsets(self):
        text = "ab\ncdef\ng\n"
        assert line_span(text, 1) == (1, 3)
        assert line_span(text, 2) == (4, 8)
        assert line_span(text, 3) == (9, 10)
        with pytest.raises(ValueError):
            line_span(text, 99)

    def test_proof_region_and_step_lines(self):
        doc = violin_doc()
        lines = doc.rendered.split("\n")
        region = proof_region(doc)
        assert lines[region[0] - 1] == "proof -"
        assert lines[region[1] - 1] == "qed"
        step_lines = proof_step_lines(doc)
        assert len(step_lines) == 3
        assert list(step_lines) == list(range(region[0] + 1, region[1]))

    def test_proof_region_absent_without_proof(self):
        assert proof_region(violin_doc().without_proof()) is None

    @pytest.mark.parametrize("with_proof", [True, False])
    def test_shows_line_is_the_theorem_goal(self, with_proof):
        doc = violin_doc() if with_proof else violin_doc().without_proof()
        lines = doc.rendered.split("\n")
        assert lines[shows_line(doc) - 1] == '  shows "%s"' % isabelle_formula(
            doc.theorem.goal
        )

    def test_shows_line_ignores_a_constant_named_shows(self):
        goal = parse_formula("exists x. shows(x)")
        doc = TheoryDoc("t", (), TheoremBlock(None, goal))
        lines = doc.rendered.split("\n")
        assert lines[shows_line(doc) - 1].startswith('  shows "')


class TestParseTheory:
    def test_full_round_trip(self):
        doc = violin_doc()
        parsed = parse_theory(doc.rendered)
        assert parsed.rendered == doc.rendered
        assert parsed.name == "violin_1"
        assert parsed.axiom_names() == ("explanation_1",)
        assert parsed.proof == doc.proof
        assert parsed.theorem.premise_text == doc.theorem.premise_text
        assert parsed.theorem.hypothesis_text == doc.theorem.hypothesis_text

    def test_proofless_round_trip(self):
        doc = violin_doc().without_proof()
        parsed = parse_theory(doc.rendered)
        assert parsed.rendered == doc.rendered
        assert parsed.proof == ()

    def test_true_assumption_parses_to_none(self):
        doc = violin_doc().without_proof()
        text = doc.rendered
        lifted = parse_theory(
            text.replace(
                '  assumes asm: "%s"' % isabelle_formula(doc.theorem.premise_assumption),
                '  assumes asm: "True"',
            )
        )
        assert lifted.theorem.premise_assumption is None

    def test_unicode_connectives_tolerated(self):
        doc = violin_doc()
        text = doc.rendered
        unicodeish = (
            text.replace("\\<forall>", "∀")
            .replace("\\<exists>", "∃")
            .replace("\\<and>", "∧")
            .replace("\\<longrightarrow>", "⟶")
        )
        assert parse_theory(unicodeish).rendered == text

    def test_missing_theorem_rejected(self):
        with pytest.raises(TheoryParseError):
            parse_theory("theory t\nimports Main\nbegin\nend\n")

    def test_unparseable_proof_line_rejected(self):
        text = violin_doc().rendered.replace(
            "  then show ?thesis using asm by blast",
            "  apply simp\n  then show ?thesis using asm by blast",
        )
        with pytest.raises(TheoryParseError):
            parse_theory(text)

    def test_second_proof_opener_is_skipped(self):
        doc = violin_doc()
        text = doc.rendered.replace("proof -\n", "proof -\nproof -\n")
        assert parse_theory(text).proof == doc.proof

    def test_dangling_proof_citation_rejected(self):
        text = violin_doc().rendered.replace(
            "using explanation_1 by blast",
            "using explanation_9 by blast",
        )
        with pytest.raises(TheoryParseError, match="explanation_9"):
            parse_theory(text)

    def test_open_axiom_rejected(self):
        doc = violin_doc().without_proof()
        text = doc.rendered.replace(
            '"\\<forall>x. Violin x \\<longrightarrow> Instrument x"',
            '"Violin x \\<longrightarrow> Instrument x"',
        )
        with pytest.raises(TheoryParseError):
            parse_theory(text)

    def test_arity_conflict_rejected(self):
        # Only the premise occurrence drops an argument, so the goal
        # still uses the binary form and the arities clash.
        doc = violin_doc().without_proof()
        text = doc.rendered.replace("Agent e x", "Agent e", 1)
        with pytest.raises(TheoryParseError):
            parse_theory(text)

    def test_comment_text_recovered(self):
        parsed = parse_theory(violin_doc().rendered)
        assert parsed.axioms[0].source_text == "A violin is an instrument."

    # Sentences are free text, and theory names come from problem ids, so
    # neither may steer the structural scans.
    @pytest.mark.parametrize(
        "source, premise_text, name",
        [
            ('The sign says: "stop" here.', "", "t"),
            ("first line\nsecond line", "", "t"),
            ("", 'It shows "Q x" plainly.', "t"),
            ("Every theorem has a proof.", "", "t"),
            ("", "", "theorem_1"),
        ],
        ids=[
            "quoted-word-in-sentence",
            "sentence-over-two-lines",
            "shows-in-premise-sentence",
            "theorem-in-sentence",
            "theorem-in-theory-name",
        ],
    )
    def test_sentences_and_names_round_trip(self, source, premise_text, name):
        doc = sentence_doc(source, premise_text, name)
        assert parse_theory(doc.rendered) == doc

    # Comment syntax and the escape's own characters come up often.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(st.sampled_from("(*) \\<star>\n") | st.characters(), max_size=30)
            .map(str.strip),
            min_size=2,
            max_size=2,
        )
    )
    def test_any_stripped_sentence_round_trips(self, sentences):
        source, premise_text = sentences
        doc = sentence_doc(source, premise_text)
        assert parse_theory(doc.rendered) == doc

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(formula_strategy(), max_size=3),
        st.none() | formula_strategy().filter(lambda f: not has_quantifier(f)),
        formula_strategy(),
    )
    def test_any_document_equals_its_reparse(self, facts, premise, goal):
        def closed(binder, f):
            free = tuple(sorted(free_variables(f)))
            return binder(free, f) if free else f

        doc = TheoryDoc(
            "t",
            tuple(
                Axiom("explanation_%d" % k, closed(Forall, f))
                for k, f in enumerate(facts, start=1)
            ),
            TheoremBlock(premise, closed(Exists, goal)),
        )
        parsed = parse_theory(doc.rendered)
        assert parsed == doc
        assert parsed.rendered == doc.rendered

    def test_text_without_star_or_backslash_renders_unescaped(self):
        doc = sentence_doc("A (simple) sentence.", 'It says "hi" (twice).')
        assert "(* Explanation 1: A (simple) sentence. *)" in doc.rendered
        assert '(* Premise: It says "hi" (twice). *)' in doc.rendered

    def test_comment_brackets_in_a_sentence_stay_inside_one_comment(self):
        doc = sentence_doc("Use (* and *) as brackets.")
        line = "  (* Explanation 1: Use (\\<star> and \\<star>) as brackets. *)"
        assert line in doc.rendered.split("\n")
        assert parse_theory(doc.rendered).axioms[0].source_text == (
            "Use (* and *) as brackets."
        )

    def test_render_theory_function_matches_property(self):
        doc = violin_doc()
        assert render_theory(doc) == doc.rendered

    def test_rendered_text_is_computed_once_per_document(self, monkeypatch):
        import verifine.theory

        calls = []

        def counting(doc):
            calls.append(doc)
            return render_theory(doc)

        monkeypatch.setattr(verifine.theory, "render_theory", counting)
        doc = violin_doc()
        fresh = violin_doc()
        assert doc.rendered == doc.rendered
        assert len(calls) == 1
        assert doc == fresh and hash(doc) == hash(fresh)
        assert doc.with_proof(()).rendered != doc.rendered
        assert len(calls) == 2

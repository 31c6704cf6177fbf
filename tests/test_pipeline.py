"""Tests for the refinement pipeline: formalisation, the syntax repair
sub-loop, proof construction, fact filtering, explanation refinement,
and the full loop replayed from the shipped transcript caches."""

import json
import logging
import os
import random
import socket
import threading
import time
from dataclasses import replace

import pytest

from verifine import batch, pipeline
from verifine.llm import MalformedStageOutput, TranscriptCache
from verifine.llmtypes import StageKind
from verifine.logic import parse_formula
from verifine.pipeline import (
    Fact,
    FeedbackBundle,
    FormulaRejected,
    InferenceStrategy,
    NLIProblem,
    PipelineContext,
    RefinerConfig,
    filter_facts,
    formalise,
    infer_and_prove,
    refine_explanation,
    refine_syntax_loop,
    run_refiner,
    trace_from_dict,
    trace_to_dict,
)
from verifine.prover import GroundOracle, IsabelleServer
from verifine.prover.messages import ProverMessage, Span, build_report
from verifine.theory import Axiom, ProofStep, StepKind

from helpers import ScriptedTransport, fenced
from fixtures_e2e import (
    BARTENDER_EXPLANATIONS,
    LADY_EXPLANATIONS,
    worked_example_problems,
    worked_example_transport,
    gateway_config,
    scrub_elapsed,
)
from test_prover_client import FakeIsabelleServer
from test_theory import violin_doc

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def make_cfg(transport, mode="live", **overrides):
    return RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode=mode,
        transport=transport,
        **overrides
    )


GADGET_PREMISE = "There is a gadget called gee."
GADGET_HYPOTHESIS = "Something is a device."
GADGET_FACT = "A gadget is a machine."
BRIDGE_FACT = "A machine is a device."
PAINT_FACT = "Paint is colorful."
GOOD_FACT = "A working gadget is a device."


def gadget_problem(*fact_texts):
    facts = tuple(Fact("f%d" % (i + 1), t) for i, t in enumerate(fact_texts))
    return NLIProblem(
        id="unit_case",
        premise_text=GADGET_PREMISE,
        hypothesis_text=GADGET_HYPOTHESIS,
        explanation=facts,
        dataset="unit",
    )


def gadget_transport(**formula_overrides):
    """Scripted sentence analysis for the gadget problems."""
    formulas = {
        GADGET_PREMISE: "Gadget(g)",
        GADGET_HYPOTHESIS: "∃x. Device(x)",
        GADGET_FACT: "∀x. Gadget(x) → Machine(x)",
        BRIDGE_FACT: "∀x. Machine(x) → Device(x)",
        PAINT_FACT: "∀x. Paint(x) → Colorful(x)",
        GOOD_FACT: "∀x. Gadget(x) → Device(x)",
    }
    formulas.update(formula_overrides)
    t = ScriptedTransport()
    t.add(StageKind.DETECT_EVENTS, fenced("1:\n2:\n3:\n4:"))
    for sentence, formula in formulas.items():
        t.add(StageKind.SENTENCE_TO_LOGIC, fenced(formula), sentence)
    return t


class FakeSession:
    """Session handle that replays queued check reports."""

    def __init__(self, reports):
        self.reports = list(reports)
        self.checked = []

    def check_document(self, doc, timeout_s=65.0):
        self.checked.append(doc)
        return self.reports.pop(0)

    def close(self):
        pass


def syntax_failure(doc):
    message = ProverMessage(
        "error", "Inner syntax error: unexpected end of input", Span(5, 12, 20)
    )
    return build_report("failed", [message], 0.01, doc)


def valid_report(doc):
    return build_report("valid", [], 0.01, doc)


# ---------------------------------------------------------------------------
# Formalisation


class TestFormalise:
    def test_builds_document_from_scripted_stages(self):
        problem = gadget_problem(GADGET_FACT, BRIDGE_FACT)
        doc = formalise(problem, make_cfg(gadget_transport()))
        assert doc.name == "unit_case"
        assert [a.name for a in doc.axioms] == ["explanation_1", "explanation_2"]
        assert [a.source_text for a in doc.axioms] == [GADGET_FACT, BRIDGE_FACT]
        assert doc.axioms[0].formula == parse_formula("∀x. Gadget(x) → Machine(x)")
        assert doc.theorem.premise_assumption == parse_formula("Gadget(g)")
        assert doc.theorem.goal == parse_formula("∃x. Device(x)")
        assert doc.theorem.premise_text == GADGET_PREMISE
        assert doc.theorem.hypothesis_text == GADGET_HYPOTHESIS
        assert doc.proof == ()

    def test_event_verbs_reach_the_formula_prompts(self):
        t = gadget_transport()
        t.rules = [r for r in t.rules if r[0] != StageKind.DETECT_EVENTS.value]
        t.add(StageKind.DETECT_EVENTS, fenced("1: tinkers\n2:\n3:"))
        problem = gadget_problem(GADGET_FACT)
        formalise(problem, make_cfg(t))
        prompts = {
            prompt.split("Sentence: ")[1].split("\n")[0]: prompt
            for stage, prompt in t.calls
            if stage == StageKind.SENTENCE_TO_LOGIC.value
        }
        assert "Event verbs detected: tinkers" in prompts[GADGET_PREMISE]
        assert "Event verbs detected: (none)" in prompts[GADGET_FACT]

    def test_premiseless_problem_assumes_nothing(self):
        problem = NLIProblem(
            id="no_premise",
            premise_text=None,
            hypothesis_text=GADGET_HYPOTHESIS,
            explanation=(Fact("f1", GOOD_FACT),),
        )
        t = gadget_transport()
        doc = formalise(problem, make_cfg(t))
        assert doc.theorem.premise_assumption is None
        roles = [
            prompt
            for stage, prompt in t.calls
            if stage == StageKind.SENTENCE_TO_LOGIC.value
            and "Sentence role: premise" in prompt
        ]
        assert roles == []

    def test_unparseable_fact_formula(self):
        t = gadget_transport(**{GADGET_FACT: "Gadget("})
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert str(exc.value) == (
            "Inner syntax error in the formula for f1: "
            "expected argument name at byte 7 (expected argument name)"
        )
        assert exc.value.sentence_id == "f1"

    def test_arity_clash_inside_one_formula(self):
        t = gadget_transport(**{GADGET_FACT: "∀x. Gadget(x) ∧ Gadget(x, x)"})
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert str(exc.value) == (
            "Type unification failed in the formula for f1: "
            "predicate 'Gadget' used with arities [1, 2]"
        )
        assert exc.value.sentence_id == "f1"

    def test_arity_clash_across_formulas(self):
        t = gadget_transport(**{GADGET_PREMISE: "Gadget(g, g)"})
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert str(exc.value) == (
            "Type unification failed: predicate 'Gadget' has conflicting "
            "arities [1, 2] (formulas [0, 1])"
        )
        assert exc.value.sentence_id == "Gadget"

    def test_open_fact_formula_rejected(self):
        t = gadget_transport(**{GADGET_FACT: "Machine(x) → Device(x)"})
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert str(exc.value) == (
            "Malformed formula for f1: formula for 'f1' must be closed (free: x)"
        )
        assert exc.value.sentence_id == "f1"

    def test_quantified_premise_rejected(self):
        t = gadget_transport(**{GADGET_PREMISE: "∀x. Gadget(x)"})
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert str(exc.value) == (
            "Malformed premise: premise assumption contains a quantifier"
        )
        assert exc.value.sentence_id == "premise"

    def test_open_hypothesis_rejected(self):
        t = gadget_transport(**{GADGET_HYPOTHESIS: "Device(x)"})
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert str(exc.value) == (
            "Malformed formula for hypothesis: "
            "formula for 'hypothesis' must be closed (free: x)"
        )
        assert exc.value.sentence_id == "hypothesis"

    # Open facts (in fact order), then the premise, then the goal, then
    # arities: the first failing check names the sentence to refine.
    @pytest.mark.parametrize(
        "formulas, sentence_id",
        [
            ({BRIDGE_FACT: "Machine(y) → Device(x)", GADGET_PREMISE: "Gadget(g, g)"}, "f2"),
            ({BRIDGE_FACT: "Machine(x) → Device(x)", GADGET_PREMISE: "∀x. Gadget(x)"}, "f2"),
            ({GADGET_PREMISE: "∀x. Gadget(x)", GADGET_HYPOTHESIS: "Device(x)"}, "premise"),
            ({GADGET_HYPOTHESIS: "Gadget(x, x)"}, "hypothesis"),
        ],
        ids=["fact-before-arity", "fact-before-premise", "premise-before-goal",
             "goal-before-arity"],
    )
    def test_first_failing_check_is_reported(self, formulas, sentence_id):
        t = gadget_transport(**formulas)
        with pytest.raises(FormulaRejected) as exc:
            formalise(gadget_problem(GADGET_FACT, BRIDGE_FACT), make_cfg(t))
        assert exc.value.sentence_id == sentence_id

    def test_event_detection_garbage_fails_the_stage(self):
        t = gadget_transport()
        t.rules = [r for r in t.rules if r[0] != StageKind.DETECT_EVENTS.value]
        t.add(StageKind.DETECT_EVENTS, "no fenced block here")
        with pytest.raises(MalformedStageOutput) as exc:
            formalise(gadget_problem(GADGET_FACT), make_cfg(t))
        assert exc.value.stage is StageKind.DETECT_EVENTS
        assert str(exc.value) == (
            "stage detect_events failed: no fenced code block in response"
        )


# ---------------------------------------------------------------------------
# Syntax repair sub-loop


class TestSyntaxRepairLoop:
    def loop(self, doc, session, transport, **overrides):
        cfg = make_cfg(transport, **overrides)
        problem = gadget_problem(GADGET_FACT)
        return refine_syntax_loop(PipelineContext(cfg, problem), doc, session)

    def test_clean_theory_skips_repair(self):
        doc = violin_doc()
        session = FakeSession([valid_report(doc.without_proof())])
        outcome = self.loop(doc, session, ScriptedTransport())
        assert outcome.iterations_used == 0
        assert outcome.errors_before == 0
        assert outcome.errors_after == 0
        assert outcome.doc.proof == ()
        assert outcome.doc.rendered == doc.without_proof().rendered

    def test_single_repair_round_trip(self):
        doc = violin_doc().without_proof()
        renamed = doc.rendered.replace(
            "theory %s" % doc.name, "theory repaired_thing", 1
        )
        t = ScriptedTransport()
        t.add(StageKind.REFINE_SYNTAX, fenced(renamed), "Prover errors:")
        session = FakeSession([syntax_failure(doc), valid_report(doc)])
        outcome = self.loop(doc, session, t)
        assert outcome.iterations_used == 1
        assert outcome.errors_before == 1
        assert outcome.errors_after == 0
        # A repair may not rename the theory.
        assert outcome.doc.name == doc.name
        assert outcome.doc.rendered == doc.rendered
        stagechain = [stage for stage, _ in t.calls]
        assert stagechain == [StageKind.REFINE_SYNTAX.value]
        prompt = t.calls[0][1]
        assert doc.rendered in prompt
        assert "- [other_syntax] (line 5) Inner syntax error" in prompt

    def test_unusable_repairs_consume_the_budget(self):
        doc = violin_doc().without_proof()
        t = ScriptedTransport()
        t.add(StageKind.REFINE_SYNTAX, fenced("not a theory at all"))
        session = FakeSession([syntax_failure(doc)] * 4)
        outcome = self.loop(doc, session, t)
        assert outcome.iterations_used == 3
        assert outcome.errors_before == 1
        assert outcome.errors_after == 1
        assert outcome.doc.rendered == doc.rendered
        assert len([s for s, _ in t.calls]) == 3
        assert len(session.checked) == 4

    def test_configured_bound_is_respected(self):
        doc = violin_doc().without_proof()
        t = ScriptedTransport()
        t.add(StageKind.REFINE_SYNTAX, fenced("still broken"))
        session = FakeSession([syntax_failure(doc)] * 6)
        outcome = self.loop(doc, session, t, syntax_iterations=5)
        assert outcome.iterations_used == 5
        assert outcome.errors_after == 1

    def test_non_syntax_failures_do_not_trigger_repair(self):
        doc = violin_doc().without_proof()
        message = ProverMessage(
            "error",
            "Failed to finish proof: goal is not entailed from the "
            "assumptions at domain bound 3",
            Span(6, 1, 5),
        )
        report = build_report("failed", [message], 0.01, doc)
        session = FakeSession([report])
        outcome = self.loop(doc, session, ScriptedTransport())
        assert outcome.iterations_used == 0
        assert outcome.errors_before == 0
        assert outcome.last_report is report


# ---------------------------------------------------------------------------
# Rough inference and proof construction


class TestInferAndProve:
    def formalised(self, transport, *fact_texts):
        problem = gadget_problem(*fact_texts)
        cfg = make_cfg(transport)
        ctx = PipelineContext(cfg, problem)
        doc = formalise(problem, cfg, ctx=ctx)
        return problem, doc, ctx

    def test_strategy_and_proof_attached(self):
        t = gadget_transport()
        t.add(
            StageKind.ROUGH_INFERENCE,
            fenced(
                "The gadget is a machine and machines are devices.\n"
                "Relevant: f1, f2\nRedundant:"
            ),
        )
        t.add(
            StageKind.CONSTRUCT_PROOF,
            fenced(
                'from asm have "Machine g" using explanation_1 by blast\n'
                "then show ?thesis using explanation_2 by blast"
            ),
        )
        problem, doc, ctx = self.formalised(t, GADGET_FACT, BRIDGE_FACT)
        strategy, proved = infer_and_prove(ctx, doc, problem.explanation)
        steps = proved.proof
        assert strategy is not None
        assert strategy.relevant_fact_ids == ("f1", "f2")
        assert strategy.redundant_fact_ids == ()
        assert len(steps) == 2
        assert steps[0].kind is StepKind.FROM_ASM_HAVE
        assert steps[0].facts_used == ("asm", "explanation_1")
        assert "using explanation_2 by blast" in proved.rendered
        construct_prompt = [
            p for s, p in t.calls if s == StageKind.CONSTRUCT_PROOF.value
        ][0]
        assert doc.rendered in construct_prompt
        assert "The gadget is a machine" in construct_prompt

    def test_fact_ids_filtered_and_ordered(self):
        t = gadget_transport()
        t.add(
            StageKind.ROUGH_INFERENCE,
            fenced("sketch\nRelevant: f2, f9, f1\nRedundant: f1, f2, f77"),
        )
        t.add(StageKind.CONSTRUCT_PROOF, "no fence")
        problem, doc, ctx = self.formalised(t, GADGET_FACT, BRIDGE_FACT)
        strategy, proved = infer_and_prove(ctx, doc, problem.explanation)
        # Known ids only, input order, redundant never repeats relevant.
        assert strategy.relevant_fact_ids == ("f1", "f2")
        assert strategy.redundant_fact_ids == ()
        assert proved.proof == ()

    def test_malformed_sketch_skips_proof_construction(self):
        t = gadget_transport()
        t.add(StageKind.ROUGH_INFERENCE, "no fenced block")
        problem, doc, ctx = self.formalised(t, GADGET_FACT)
        strategy, proved = infer_and_prove(ctx, doc, problem.explanation)
        assert strategy is None
        assert proved.rendered == doc.rendered
        assert [
            s for s, _ in t.calls if s == StageKind.CONSTRUCT_PROOF.value
        ] == []

    def test_malformed_proof_leaves_theory_proofless(self):
        t = gadget_transport()
        t.add(StageKind.ROUGH_INFERENCE, fenced("sketch\nRelevant: f1\nRedundant:"))
        t.add(StageKind.CONSTRUCT_PROOF, fenced("apply auto"))
        problem, doc, ctx = self.formalised(t, GADGET_FACT)
        strategy, proved = infer_and_prove(ctx, doc, problem.explanation)
        assert strategy is not None
        assert proved.proof == ()

    def test_dangling_citation_discards_the_proof(self):
        t = gadget_transport()
        t.add(StageKind.ROUGH_INFERENCE, fenced("sketch\nRelevant: f1\nRedundant:"))
        t.add(
            StageKind.CONSTRUCT_PROOF,
            fenced(
                'from asm have "Machine g" using explanation_9 by blast\n'
                "then show ?thesis by blast"
            ),
        )
        problem, doc, ctx = self.formalised(t, GADGET_FACT)
        strategy, proved = infer_and_prove(ctx, doc, problem.explanation)
        assert proved.proof == ()


# ---------------------------------------------------------------------------
# Fact filtering


def _is_subsequence(kept, original):
    it = iter(original)
    return all(any(fact is candidate for candidate in it) for fact in kept)


class TestFilterFacts:
    def facts(self, n):
        return [Fact("f%d" % (i + 1), "sentence %d" % (i + 1)) for i in range(n)]

    def test_keeps_cited_and_relevant_facts_in_order(self):
        explanation = self.facts(3)
        steps = [ProofStep(StepKind.THEN_HAVE, "G x", ("explanation_2",))]
        strategy = InferenceStrategy("n", relevant_fact_ids=("f3",))
        kept = filter_facts(explanation, strategy, steps)
        assert kept == [explanation[1], explanation[2]]

    def test_without_strategy_only_citations_count(self):
        explanation = self.facts(3)
        steps = [
            ProofStep(StepKind.FROM_ASM_HAVE, "G x", ("asm", "explanation_3")),
        ]
        assert filter_facts(explanation, None, steps) == [explanation[2]]

    def test_nothing_used_drops_everything(self):
        assert filter_facts(self.facts(4), None, ()) == []

    def test_citation_names_are_positional(self):
        # The second fact's axiom is explanation_2 no matter its id.
        explanation = [Fact("f9", "a"), Fact("f1", "b")]
        steps = [ProofStep(StepKind.THEN_HAVE, "G x", ("explanation_2",))]
        assert filter_facts(explanation, None, steps) == [explanation[1]]

    def test_random_triples_always_yield_subsequences(self):
        rng = random.Random(90210)
        kinds = (StepKind.FROM_ASM_HAVE, StepKind.THEN_HAVE, StepKind.THEN_SHOW_THESIS)
        for _ in range(10000):
            explanation = self.facts(rng.randrange(0, 9))
            strategy = None
            if rng.random() < 0.7:
                pool = list(
                    dict.fromkeys(
                        "f%d" % rng.randrange(1, 12) for _ in range(6)
                    )
                )
                cut = rng.randrange(0, len(pool) + 1)
                strategy = InferenceStrategy(
                    "n", tuple(pool[:cut]), tuple(pool[cut:])
                )
            steps = [
                ProofStep(
                    rng.choice(kinds),
                    "G x",
                    tuple(
                        rng.choice(["asm", "explanation_%d" % rng.randrange(1, 12)])
                        for _ in range(rng.randrange(0, 3))
                    ),
                )
                for _ in range(rng.randrange(0, 5))
            ]
            kept = filter_facts(explanation, strategy, steps)
            assert _is_subsequence(kept, explanation)


# ---------------------------------------------------------------------------
# Explanation refinement


class TestRefineExplanation:
    def refine(self, response, current, bundle=None):
        t = ScriptedTransport()
        t.add(StageKind.REFINE_EXPLANATION, response)
        problem = gadget_problem(*[f.text for f in current])
        cfg = make_cfg(t)
        bundle = bundle or FeedbackBundle("proof failed")
        ctx = PipelineContext(cfg, problem)
        return refine_explanation(ctx, bundle, current), t

    def test_verbatim_sentences_keep_their_ids(self):
        current = (Fact("f1", GADGET_FACT), Fact("f2", PAINT_FACT))
        refined, _ = self.refine(
            fenced("- %s\n- %s" % (GADGET_FACT, BRIDGE_FACT)), current
        )
        assert [f.id for f in refined] == ["f1", "f3"]
        assert [f.text for f in refined] == [GADGET_FACT, BRIDGE_FACT]

    def test_duplicate_sentences_collapse(self):
        current = (Fact("f1", GADGET_FACT),)
        refined, _ = self.refine(
            fenced("- %s\n- %s" % (GADGET_FACT, GADGET_FACT)), current
        )
        assert refined == current

    def test_malformed_response_keeps_explanation(self):
        current = (Fact("f1", GADGET_FACT),)
        refined, _ = self.refine("no fenced block", current)
        assert refined == current

    def test_feedback_fields_reach_the_prompt(self):
        step = ProofStep(StepKind.THEN_HAVE, "Machine g", ("explanation_1",))
        axiom = Axiom(
            "explanation_1",
            parse_formula("∀x. Gadget(x) → Machine(x)"),
            GADGET_FACT,
        )
        bundle = FeedbackBundle(
            error_message="step goal is not entailed",
            failed_step=step,
            failed_step_index=1,
            strategy=InferenceStrategy("chain the machine facts", ("f1",)),
            relevant_axioms=(axiom,),
        )
        current = (Fact("f1", GADGET_FACT),)
        _, t = self.refine(fenced("- %s" % GADGET_FACT), current, bundle)
        prompt = t.calls[0][1]
        assert "Prover error: step goal is not entailed" in prompt
        assert (
            'Failed proof step: step 2: then have "Machine g" '
            "using explanation_1 by blast" in prompt
        )
        assert "Argument sketch: chain the machine facts" in prompt
        assert "- " + GADGET_FACT in prompt
        assert "f1: " + GADGET_FACT in prompt

    def test_no_feedback_renders_placeholders(self):
        current = (Fact("f1", GADGET_FACT),)
        _, t = self.refine(
            fenced("- %s" % GADGET_FACT), current, FeedbackBundle("boom")
        )
        prompt = t.calls[0][1]
        assert "Failed proof step: (none)" in prompt
        assert "Argument sketch: (none)" in prompt
        assert "(none)" in prompt.split("relied on:\n")[1]


# ---------------------------------------------------------------------------
# The full loop on scripted mini problems


class TestRunRefinerScripted:
    def test_valid_initially(self):
        t = gadget_transport()
        t.add(StageKind.ROUGH_INFERENCE, fenced("direct\nRelevant: f1\nRedundant:"))
        t.add(StageKind.CONSTRUCT_PROOF, "no usable proof")
        problem = gadget_problem(GOOD_FACT)
        trace = run_refiner(problem, make_cfg(t))
        assert trace.final_status == "valid_initially"
        assert trace.total_iterations == 0
        assert len(trace.iterations) == 1
        record = trace.iterations[0]
        assert record.report.status == "valid"
        assert record.feedback is None
        assert record.proof_steps_suggested == 0
        assert record.explanation_after == problem.explanation

    @pytest.mark.parametrize(
        "stage", [StageKind.DETECT_EVENTS, StageKind.REFINE_EXPLANATION]
    )
    def test_a_crash_ends_the_problem_with_a_failure_trace(self, stage, caplog):
        """A fault in round 0's first call, or in a refinement after a
        finished round, ends the problem: exhausted, no rounds, the fault
        as its diagnostic."""
        scripted = worked_example_transport()

        def transport(request):
            if request["stage"] == stage.value:
                raise RuntimeError("simulated transport crash")
            return scripted(request)

        problem = worked_example_problems()[0]
        with caplog.at_level(logging.ERROR, logger="verifine.pipeline"):
            trace = run_refiner(problem, make_cfg(transport))
        assert trace.final_status == "exhausted_invalid"
        assert trace.iterations == ()
        assert trace.total_iterations == 0
        assert trace.diagnostic == "pipeline error: simulated transport crash"
        assert caplog.record_tuples == [(
            "verifine.pipeline",
            logging.ERROR,
            "problem %s failed: simulated transport crash" % problem.id,
        )]

    def test_a_failed_session_close_ends_the_problem_with_a_failure_trace(
        self, monkeypatch
    ):
        original = pipeline.start_session

        def unclosable(backend):
            handle = original(backend)

            def close():
                raise RuntimeError("close failed")

            handle.close = close
            return handle

        monkeypatch.setattr(pipeline, "start_session", unclosable)
        t = gadget_transport()
        t.add(StageKind.ROUGH_INFERENCE, fenced("direct\nRelevant: f1\nRedundant:"))
        t.add(StageKind.CONSTRUCT_PROOF, "no usable proof")
        trace = run_refiner(gadget_problem(GOOD_FACT), make_cfg(t))
        assert trace.final_status == "exhausted_invalid"
        assert trace.iterations == ()
        assert trace.diagnostic == "pipeline error: close failed"

    def test_filtering_drops_unused_facts_before_refinement(self):
        t = gadget_transport()
        t.add(
            StageKind.ROUGH_INFERENCE,
            fenced("bridge via machines\nRelevant: f2, f3\nRedundant:"),
            BRIDGE_FACT,
        )
        t.add(
            StageKind.ROUGH_INFERENCE,
            fenced("only the machine fact matters\nRelevant: f2\nRedundant: f1"),
            PAINT_FACT,
        )
        t.add(StageKind.CONSTRUCT_PROOF, "declined")
        t.add(
            StageKind.REFINE_EXPLANATION,
            fenced("- %s\n- %s" % (GADGET_FACT, BRIDGE_FACT)),
        )
        problem = gadget_problem(PAINT_FACT, GADGET_FACT)
        trace = run_refiner(problem, make_cfg(t))
        assert trace.final_status == "refined_valid"
        assert trace.total_iterations == 1
        first, second = trace.iterations
        assert [f.id for f in first.explanation_after] == ["f2", "f3"]
        assert [f.text for f in second.explanation_before] == [
            GADGET_FACT,
            BRIDGE_FACT,
        ]
        assert second.report.status == "valid"
        refine_prompt = [
            p for s, p in t.calls if s == StageKind.REFINE_EXPLANATION.value
        ][0]
        assert "f2: " + GADGET_FACT in refine_prompt
        assert "f1:" not in refine_prompt

    def test_unrepairable_formalisation_exhausts_gracefully(self):
        t = gadget_transport(**{GADGET_FACT: "Gadget("})
        t.add(StageKind.REFINE_EXPLANATION, fenced("- " + GADGET_FACT))
        problem = gadget_problem(GADGET_FACT)
        trace = run_refiner(problem, make_cfg(t, max_refinement_iterations=2))
        assert trace.final_status == "exhausted_invalid"
        assert trace.diagnostic is None
        assert trace.total_iterations == 2
        assert len(trace.iterations) == 3
        for record in trace.iterations:
            assert record.theory is None
            assert record.report.status == "failed"
            assert record.feedback.error_message.startswith(
                "Inner syntax error in the formula for f1:"
            )
        last = trace.iterations[-1]
        assert last.explanation_after == last.explanation_before

    def test_deeply_nested_formula_is_an_inner_syntax_error(self):
        deep = "∀x. " + "(" * 200 + "Gadget(x) → Machine(x)" + ")" * 200
        t = gadget_transport(**{GADGET_FACT: deep})
        problem = gadget_problem(GADGET_FACT)
        trace = run_refiner(problem, make_cfg(t, max_refinement_iterations=0))
        assert trace.diagnostic is None
        (record,) = trace.iterations
        assert record.theory is None
        assert record.feedback.error_message.startswith(
            "Inner syntax error in the formula for f1:"
        )

    def test_backend_unavailable_yields_diagnostic_trace(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=IsabelleServer("127.0.0.1", port, "pw"),
            mode="live",
            transport=ScriptedTransport(),
        )
        trace = run_refiner(gadget_problem(GADGET_FACT), cfg)
        assert trace.final_status == "exhausted_invalid"
        assert trace.iterations == ()
        assert trace.total_iterations == 0
        assert trace.diagnostic.startswith("backend unavailable:")

    def test_timed_out_check_ends_the_round(self):
        """A prover that never answers ends each round at its first check;
        the next round opens a fresh session instead of failing the problem."""
        server = FakeIsabelleServer()
        server.hang_on_use_theories = True
        transport = worked_example_transport()
        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=IsabelleServer("127.0.0.1", server.port, server.password),
            mode="live",
            transport=transport,
            max_refinement_iterations=1,
            timeout_s=0.3,
        )
        try:
            trace = run_refiner(worked_example_problems()[0], cfg)
        finally:
            server.close()
        assert trace.diagnostic is None
        assert trace.final_status == "exhausted_invalid"
        assert [r.report.status for r in trace.iterations] == ["timeout", "timeout"]
        lifecycle = [
            name
            for name, _ in server.requests
            if name in ("session_start", "use_theories")
        ]
        assert lifecycle == ["session_start", "use_theories"] * 2
        called = {stage for stage, _ in transport.calls}
        assert called.isdisjoint(
            {StageKind.ROUGH_INFERENCE.value, StageKind.CONSTRUCT_PROOF.value}
        )


@pytest.mark.parametrize(
    "mode, message",
    [
        ("batch", "mode must be one of"),
        ("record", "record mode requires a transcript cache"),
        ("replay", "replay mode requires a transcript cache"),
    ],
)
def test_the_config_refuses_a_mode_it_cannot_run(mode, message):
    """Refused when built, not as a `pipeline error` on every problem."""
    with pytest.raises(ValueError, match=message):
        make_cfg(ScriptedTransport(), mode=mode)


def test_the_config_refuses_a_value_that_is_no_backend():
    """Refused when built; None, a config that only formalises, is not."""
    with pytest.raises(TypeError, match="unknown backend"):
        RefinerConfig(llm=gateway_config(), backend=object())
    assert RefinerConfig(llm=gateway_config(), backend=None).backend is None


# ---------------------------------------------------------------------------
# The prover session a problem's rounds share


def isabelle_cfg(server, transport, **overrides):
    return RefinerConfig(
        llm=gateway_config(),
        backend=IsabelleServer("127.0.0.1", server.port, server.password),
        mode="live",
        transport=transport,
        **overrides
    )


class TestProblemSession:
    def test_rounds_share_one_session(self):
        server = FakeIsabelleServer()
        server.use_theories_payload = {
            "ok": False,
            "nodes": [
                {"messages": [{"kind": "error", "message": "Failed to finish proof"}]}
            ],
        }
        cfg = isabelle_cfg(
            server, worked_example_transport(), max_refinement_iterations=1
        )
        try:
            trace = run_refiner(worked_example_problems()[0], cfg)
        finally:
            server.close()
        assert trace.final_status == "exhausted_invalid"
        assert trace.diagnostic is None
        assert len(trace.iterations) == 2
        names = [name for name, _ in server.requests]
        for command in ("session_build", "session_start", "session_stop"):
            assert names.count(command) == 1, command
        dirs = [args["master_dir"] for name, args in server.requests
                if name == "use_theories"]
        assert len(dirs) == 4
        assert len(set(dirs)) == 4

    def test_session_opens_while_the_round_formalises(self):
        """The server holds session_start until the round's first LLM
        call, so a session opened before formalisation never comes up."""
        server = FakeIsabelleServer()
        server.start_gate = threading.Event()
        scripted = worked_example_transport()

        def transport(request):
            server.start_gate.set()
            return scripted(request)

        try:
            trace = run_refiner(
                worked_example_problems()[0], isabelle_cfg(server, transport)
            )
        finally:
            server.close()
        assert trace.diagnostic is None
        assert trace.final_status == "valid_initially"

    @pytest.mark.parametrize("runner", ["refiner", "batch"])
    def test_oracle_session_opens_on_the_calling_thread(self, monkeypatch, runner):
        """Bare, the problem opens a `GroundOracle` session; in a batch, the
        batch's shared `OracleSession`.  Either opens where the problem runs."""
        opened_on, refined_on = [], []
        original = pipeline.start_session

        def recording(backend):
            opened_on.append(threading.current_thread())
            return original(backend)

        def refiner(problem, cfg):
            refined_on.append(threading.current_thread())
            return run_refiner(problem, cfg)

        monkeypatch.setattr(pipeline, "start_session", recording)
        monkeypatch.setattr(batch, "run_refiner", refiner)
        t = gadget_transport()
        t.add(StageKind.ROUGH_INFERENCE, fenced("direct\nRelevant: f1\nRedundant:"))
        t.add(StageKind.CONSTRUCT_PROOF, "no usable proof")
        problem, cfg = gadget_problem(GOOD_FACT), make_cfg(t)
        if runner == "batch":
            [trace] = batch.run_batch([problem], cfg, workers=1)
        else:
            trace = refiner(problem, cfg)
        assert trace.final_status == "valid_initially"
        assert opened_on == refined_on


# ---------------------------------------------------------------------------
# Replay of the shipped worked examples


@pytest.fixture(scope="module")
def replay_cfg():
    return RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode="replay",
        cache=TranscriptCache(os.path.join(DATA_DIR, "replay", "esnli.jsonl")),
        transport=None,
    )


@pytest.fixture(scope="module")
def replayed_traces(replay_cfg):
    return {p.id: run_refiner(p, replay_cfg) for p in worked_example_problems()}


class TestWorkedExamplesReplay:
    def expect_progression(self, trace, expected_texts):
        assert trace.final_status == "refined_valid"
        assert trace.total_iterations == 2
        assert len(trace.iterations) == 3
        for record, texts in zip(trace.iterations, expected_texts):
            assert [f.text for f in record.explanation_before] == texts
        assert [
            f.text for f in trace.iterations[0].explanation_after
        ] == expected_texts[1]
        assert [
            f.text for f in trace.iterations[1].explanation_after
        ] == expected_texts[2]
        final = trace.iterations[2]
        assert final.explanation_after == final.explanation_before
        assert final.report.status == "valid"
        assert final.feedback is None

    def test_lady_book_progression(self, replayed_traces):
        self.expect_progression(
            replayed_traces["esnli_lady_book"], LADY_EXPLANATIONS
        )

    def test_lady_book_failure_details(self, replayed_traces):
        trace = replayed_traces["esnli_lady_book"]
        first, second, final = trace.iterations
        assert first.feedback.failed_step_index == 1
        assert [a.name for a in first.feedback.relevant_axioms] == ["explanation_1"]
        assert first.proof_steps_suggested == 3
        assert first.proof_steps_processed == 1
        assert second.feedback.failed_step_index == 2
        assert second.feedback.relevant_axioms == ()
        assert final.proof_steps_processed == 3
        assert len(final.theory.proof) == 3
        assert [a.name for a in final.theory.axioms] == [
            "explanation_1",
            "explanation_2",
            "explanation_3",
        ]

    def test_bartender_progression(self, replayed_traces):
        self.expect_progression(
            replayed_traces["esnli_bartender"], BARTENDER_EXPLANATIONS
        )

    def test_bartender_failure_details(self, replayed_traces):
        trace = replayed_traces["esnli_bartender"]
        first, second, final = trace.iterations
        assert first.feedback.failed_step_index == 1
        assert second.feedback.failed_step_index == 2
        assert [a.name for a in second.feedback.relevant_axioms] == ["explanation_2"]
        assert second.feedback.relevant_axioms[0].source_text == (
            "If a person is wearing black, then the person is in black."
        )
        assert second.proof_steps_suggested == 4
        assert final.proof_steps_processed == 3

    def test_problem_file_round_trips(self):
        from verifine.datasets import load_problems

        loaded = load_problems(os.path.join(DATA_DIR, "esnli_pairs.jsonl"))
        assert loaded == worked_example_problems()

    def test_replay_is_deterministic(self, replay_cfg, replayed_traces):
        for problem in worked_example_problems():
            again = run_refiner(problem, replay_cfg)
            assert scrub_elapsed(trace_to_dict(again)) == scrub_elapsed(
                trace_to_dict(replayed_traces[problem.id])
            )

    def test_replay_never_contacts_a_transport(self, replay_cfg):
        def exploding(request):
            raise AssertionError("replay must not call the transport")

        cfg = RefinerConfig(
            llm=replay_cfg.llm,
            backend=replay_cfg.backend,
            mode="replay",
            cache=replay_cfg.cache,
            transport=exploding,
        )
        trace = run_refiner(worked_example_problems()[0], cfg)
        assert trace.final_status == "refined_valid"


# ---------------------------------------------------------------------------
# Trace serialisation


class TestTraceSerialisation:
    def test_refined_trace_round_trips(self, replayed_traces):
        original = replayed_traces["esnli_lady_book"]
        data = trace_to_dict(original)
        json.dumps(data)
        restored = trace_from_dict(data)
        assert trace_to_dict(restored) == data
        assert restored.final_status == original.final_status
        assert restored.total_iterations == original.total_iterations
        middle = restored.iterations[1]
        assert middle.feedback.failed_step_index == 2
        assert middle.theory.rendered == original.iterations[1].theory.rendered

    def test_failure_trace_round_trips(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=IsabelleServer("127.0.0.1", port, "pw"),
            mode="live",
            transport=ScriptedTransport(),
        )
        trace = run_refiner(gadget_problem(GADGET_FACT), cfg)
        data = trace_to_dict(trace)
        restored = trace_from_dict(data)
        assert restored.diagnostic == trace.diagnostic
        assert restored.iterations == ()
        assert trace_to_dict(restored) == data

    def test_optional_keys_default_when_absent(self, replayed_traces):
        full = trace_to_dict(replayed_traces["esnli_lady_book"])
        data = json.loads(json.dumps(full))
        del data["dataset"], data["diagnostic"]
        for record in data["iterations"]:
            del record["proof_steps_suggested"], record["proof_steps_processed"]
            if record["feedback"] is not None:
                del record["feedback"]["failed_step_index"]
                del record["feedback"]["relevant_axioms"]
        decoded = trace_from_dict(full)
        expected = replace(
            decoded,
            dataset="default",
            diagnostic=None,
            iterations=tuple(
                replace(
                    r,
                    proof_steps_suggested=0,
                    proof_steps_processed=0,
                    feedback=r.feedback
                    and replace(r.feedback, failed_step_index=None, relevant_axioms=()),
                )
                for r in decoded.iterations
            ),
        )
        assert trace_from_dict(data) == expected
        assert any(r.feedback.relevant_axioms for r in decoded.iterations[:-1])

    def test_cited_axioms_the_theory_lacks_are_dropped(self, replayed_traces):
        original = replayed_traces["esnli_lady_book"]
        data = trace_to_dict(original)
        middle = data["iterations"][1]
        middle["feedback"]["relevant_axioms"].insert(0, "explanation_99")
        restored = trace_from_dict(data)
        assert (
            restored.iterations[1].feedback.relevant_axioms
            == original.iterations[1].feedback.relevant_axioms
        )
        middle["theory"] = None
        restored = trace_from_dict(data)
        assert restored.iterations[1].theory is None
        assert restored.iterations[1].feedback.relevant_axioms == ()

    def test_formalisation_failure_record_round_trips(self):
        t = gadget_transport(**{GADGET_FACT: "Gadget("})
        t.add(StageKind.REFINE_EXPLANATION, fenced("- " + GADGET_FACT))
        trace = run_refiner(
            gadget_problem(GADGET_FACT),
            make_cfg(t, max_refinement_iterations=1),
        )
        data = trace_to_dict(trace)
        restored = trace_from_dict(data)
        assert restored.iterations[0].theory is None
        assert trace_to_dict(restored) == data


# ---------------------------------------------------------------------------
# Adversarial refinement: the loop must terminate at its bound


def adversarial_corpus(count=25, seed=4207):
    rng = random.Random(seed)
    nouns = ("signal", "sensor", "beacon", "relay", "probe")
    adjectives = ("steady", "faint", "bright", "coded", "stray")
    problems = []
    table = {}
    for i in range(count):
        noun = rng.choice(nouns)
        premise = "The %s %s number %d is observed." % (
            rng.choice(adjectives),
            noun,
            i,
        )
        fact = "An observed %s stays an observed %s." % (noun, noun)
        hypothesis = "Some %s is confirmed." % noun
        table[premise] = "Observed(item%d)" % i
        table[fact] = "∀x. Observed(x) → Observed(x)"
        table[hypothesis] = "∃x. Confirmed(x)"
        problems.append(
            NLIProblem(
                id="adv_%02d" % i,
                premise_text=premise,
                hypothesis_text=hypothesis,
                explanation=(Fact("f1", fact),),
                dataset="synthetic",
            )
        )
    return problems, table


def adversarial_transport(table):
    """A stage that never repairs: every round proposes the same failing
    proof and hands back the explanation unchanged."""
    import re as _re

    def transport(request):
        stage = request["stage"]
        prompt = request["prompt"]
        if stage == StageKind.DETECT_EVENTS.value:
            numbers = _re.findall(r"^(\d+)\. ", prompt, _re.M)
            return fenced("\n".join("%s:" % n for n in numbers))
        if stage == StageKind.SENTENCE_TO_LOGIC.value:
            sentence = _re.search(r"^Sentence: (.*)$", prompt, _re.M).group(1)
            return fenced(table[sentence])
        if stage == StageKind.ROUGH_INFERENCE.value:
            return fenced(
                "The fact restates itself and never reaches the goal.\n"
                "Relevant: f1\nRedundant:"
            )
        if stage == StageKind.CONSTRUCT_PROOF.value:
            constant = _re.search(r"Observed (item\d+)", prompt).group(1)
            return fenced(
                'from asm have "Confirmed %s" using explanation_1 by blast\n'
                "then show ?thesis by blast" % constant
            )
        if stage == StageKind.REFINE_EXPLANATION.value:
            facts = _re.findall(r"^f\d+: (.*)$", prompt, _re.M)
            return fenced("\n".join("- " + f for f in facts))
        raise AssertionError("unexpected stage %s" % stage)

    return transport


class TestAdversarialRefinement:
    def test_never_repairing_stage_exhausts_at_the_bound(self):
        problems, table = adversarial_corpus()
        cfg = make_cfg(adversarial_transport(table))
        assert cfg.max_refinement_iterations == 10
        started = time.monotonic()
        for problem in problems:
            trace = run_refiner(problem, cfg)
            assert trace.final_status == "exhausted_invalid"
            assert trace.diagnostic is None
            assert trace.total_iterations == 10
            assert len(trace.iterations) == 11
            for record in trace.iterations:
                assert record.syntax_iterations_used <= 3
                assert record.report.status == "failed"
                assert record.feedback.failed_step_index == 0
            last = trace.iterations[-1]
            assert last.explanation_after == last.explanation_before
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, "adversarial corpus took %.1fs" % elapsed

"""Acceptance gate: one test per shipping criterion.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line once its
checks hold (run pytest with -s to see the lines); a failed criterion
shows up as an ordinary failed test.  The live-prover criterion skips
unless VERIFINE_ISABELLE_HOST/PORT point at a running server.
"""

import json
import os
import random
import time
import types

import pytest

from verifine.datasets import load_problems
from verifine.llm import TranscriptCache
from verifine.logic import parse_formula, render_formula
from verifine.pipeline import (
    Fact,
    InferenceStrategy,
    RefinerConfig,
    filter_facts,
    run_refiner,
    trace_from_dict,
    trace_to_dict,
)
from verifine.prover import GroundOracle, IsabelleServer, start_session
from verifine.prover.messages import (
    ErrorClass,
    ProverMessage,
    classify_error,
    load_error_patterns,
    locate_failed_step,
)
from verifine.prover.oracle import OracleSession
from verifine.batch import run_batch
from verifine.report import aggregate, render_csv
from verifine.theory import ProofStep, StepKind

from helpers import brute_entails, make_formulas
from fixtures_e2e import (
    BARTENDER_EXPLANATIONS,
    LADY_EXPLANATIONS,
    worked_example_problems,
    gateway_config,
    scrub_elapsed,
)
from test_classification import CANNED
from test_harness import synthetic_improvement_corpus
from test_oracle import ENTAILMENT_CASES, make_doc
from test_pipeline import (
    _is_subsequence,
    adversarial_corpus,
    adversarial_transport,
)
from test_prover_client import live_params
from test_theory import violin_doc

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def announce(number, name):
    print("ACCEPTANCE %d %s: PASS" % (number, name))


def replay_config(cache_name):
    return RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode="replay",
        cache=TranscriptCache(os.path.join(DATA_DIR, "replay", cache_name)),
        transport=None,
    )


def test_01_formula_round_trip():
    formulas = make_formulas(1000, seed=8140301)
    started = time.monotonic()
    for formula in formulas:
        assert parse_formula(render_formula(formula)) == formula
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, "1000 round trips took %.2fs" % elapsed
    announce(1, "formula-round-trip")


def test_02_golden_theory_document():
    doc = violin_doc()
    golden = os.path.join(DATA_DIR, "violin_golden.thy")
    with open(golden, "rb") as fh:
        expected = fh.read()
    assert doc.rendered.encode("utf-8") == expected
    step_lines = [
        line for line in doc.rendered.splitlines() if line.startswith("  then have")
    ]
    assert step_lines[0].endswith("using explanation_1 by blast")
    announce(2, "golden-theory")


def test_03_oracle_agrees_with_enumerator():
    assert len(ENTAILMENT_CASES) >= 20
    started = time.monotonic()
    agreements = 0
    for label, axiom_texts, premise_text, goal_text, bound, expected in (
        ENTAILMENT_CASES
    ):
        doc = make_doc(axiom_texts, premise_text, goal_text)
        premises = [a.formula for a in doc.axioms]
        if doc.theorem.premise_assumption is not None:
            premises.append(doc.theorem.premise_assumption)
        want = brute_entails(premises, doc.theorem.goal, bound)
        assert want is expected, "fixture %s mislabelled" % label
        got = OracleSession(bound).check_document(doc).status == "valid"
        agreements += got is want
    elapsed = time.monotonic() - started
    assert agreements == len(ENTAILMENT_CASES)
    assert elapsed < 10.0, "oracle corpus took %.2fs" % elapsed
    announce(3, "oracle-vs-enumerator")


def test_04_live_prover_round_trip():
    params = live_params()
    if params is None:
        pytest.skip("no live prover configured (set VERIFINE_ISABELLE_HOST/PORT)")
    handle = start_session(IsabelleServer(**params))
    try:
        started = time.monotonic()
        report = handle.check_document(violin_doc(), timeout_s=65.0)
        assert report.status == "valid"
        assert time.monotonic() - started < 65.0

        # Text no TheoryDoc can hold, in a stand-in with the fields a
        # check reads.
        text = violin_doc().rendered.replace("Agent e x", "Agent e", 1)
        clashed = types.SimpleNamespace(name="violin_clash", rendered=text, proof=())
        report = handle.check_document(clashed, timeout_s=65.0)
        assert report.status == "failed"
        assert report.first_error[1] is ErrorClass.TYPE_UNIFICATION

        doc = violin_doc()
        steps = list(doc.proof)
        steps[1] = ProofStep(StepKind.THEN_HAVE, steps[1].goal_text, ())
        weak = doc.with_proof(steps)
        report = handle.check_document(weak, timeout_s=65.0)
        assert report.status == "failed"
        assert report.first_error[1] is ErrorClass.PROOF_FAILURE
        assert locate_failed_step(report, weak) == 1
    finally:
        handle.close()
    announce(4, "live-prover")


def test_05_worked_examples_replay():
    cfg = replay_config("esnli.jsonl")
    problems = {p.id: p for p in worked_example_problems()}
    expected = {
        "esnli_lady_book": LADY_EXPLANATIONS,
        "esnli_bartender": BARTENDER_EXPLANATIONS,
    }
    for problem_id, progression in expected.items():
        trace = run_refiner(problems[problem_id], cfg)
        assert trace.final_status == "refined_valid"
        assert trace.total_iterations == 2
        assert len(trace.iterations) == len(progression)
        for record, texts in zip(trace.iterations, progression):
            assert [f.text for f in record.explanation_before] == texts
        assert trace.iterations[-1].report.status == "valid"
        again = run_refiner(problems[problem_id], cfg)
        assert scrub_elapsed(trace_to_dict(again)) == scrub_elapsed(
            trace_to_dict(trace)
        )
    announce(5, "worked-examples-replay")


def test_06_adversarial_loop_terminates_at_bound():
    problems, table = adversarial_corpus(count=25)
    cfg = RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode="live",
        transport=adversarial_transport(table),
    )
    assert cfg.max_refinement_iterations == 10
    started = time.monotonic()
    for problem in problems:
        trace = run_refiner(problem, cfg)
        assert trace.final_status == "exhausted_invalid"
        assert trace.total_iterations == 10
        assert len(trace.iterations) == 11
        for record in trace.iterations:
            assert record.syntax_iterations_used <= 3
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "adversarial corpus took %.2fs" % elapsed
    announce(6, "adversarial-loop-bound")


def test_07_canned_errors_classify_correctly():
    assert len(CANNED) >= 12
    assert len(load_error_patterns()) >= 12
    correct = sum(
        classify_error(ProverMessage("error", text)) is expected
        for text, expected in CANNED
    )
    assert correct == len(CANNED)
    announce(7, "error-classification")


def test_08_report_reproduces_improvement_numbers():
    report = aggregate(synthetic_improvement_corpus())
    rows = render_csv(report).splitlines()
    overall = rows[-1].split(",")
    assert overall[5] == "36.00"
    assert overall[6] == "84.00"
    assert overall[7] == "7.82"
    assert overall[8] == "2.45"
    assert report.overall.iteration_records == 100
    announce(8, "aggregate-report")


def test_09_fact_filter_returns_subsequences():
    rng = random.Random(20260814)
    kinds = (StepKind.FROM_ASM_HAVE, StepKind.THEN_HAVE, StepKind.THEN_SHOW_THESIS)
    for _ in range(10000):
        explanation = [
            Fact("f%d" % (i + 1), "sentence %d" % (i + 1))
            for i in range(rng.randrange(0, 9))
        ]
        strategy = None
        if rng.random() < 0.7:
            pool = list(
                dict.fromkeys("f%d" % rng.randrange(1, 12) for _ in range(6))
            )
            cut = rng.randrange(0, len(pool) + 1)
            strategy = InferenceStrategy("n", tuple(pool[:cut]), tuple(pool[cut:]))
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
    announce(9, "fact-filter-subsequence")


def test_10_batch_replay_writes_complete_traces(tmp_path):
    problems = load_problems(os.path.join(DATA_DIR, "batch50.jsonl"))
    assert len(problems) == 50
    out_dir = str(tmp_path / "traces")
    started = time.monotonic()
    traces = run_batch(
        problems, replay_config("batch50.jsonl"), out_dir, workers=4
    )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, "batch run took %.2fs" % elapsed
    assert len(traces) == 50
    for problem, trace in zip(problems, traces):
        assert trace.problem_id == problem.id
        assert trace.final_status in ("valid_initially", "refined_valid")
        path = os.path.join(out_dir, "trace_%s.json" % problem.id)
        with open(path, "r", encoding="utf-8") as fh:
            restored = trace_from_dict(json.load(fh))
        assert restored.problem_id == problem.id
        assert len(restored.iterations) >= 1
        assert restored.iterations[-1].report.status == "valid"
    announce(10, "batch-replay-traces")

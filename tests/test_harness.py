"""Tests for the surrounding harness: dataset loading and conversion,
run-report aggregation, the batch runner, and the command-line tool."""

import csv
import io
import json
import os
import random
import socket
import time

import pytest

from verifine.batch import _safe_stem, run_batch
from verifine.cli import _llm_config, build_parser, main
from verifine.datasets import (
    DuplicateId,
    SchemaError,
    load_problems,
    mcqa_hypothesis,
    save_problems,
)
from verifine.llm import TranscriptCache
from verifine.llmtypes import StageKind
from verifine.logic import parse_formula
from verifine.pipeline import (
    Fact,
    FeedbackBundle,
    IterationRecord,
    NLIProblem,
    RefinementTrace,
    RefinerConfig,
    trace_from_dict,
    trace_to_dict,
)
from verifine.prover import GroundOracle
from verifine.prover.messages import ProverMessage, build_report
from verifine.report import (
    DatasetStats,
    aggregate,
    render_csv,
    render_json,
    render_text,
    report_to_dict,
)
from verifine.theory import (
    TheoremBlock,
    TheoryDoc,
    parse_inner_formula,
    parse_theory,
)

from fixtures_e2e import batch_problems, gateway_config, scrub_elapsed

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")


ROW = {
    "id": "p1",
    "premise": "A premise.",
    "hypothesis": "A hypothesis.",
    "explanation": ["First fact.", "Second fact."],
    "dataset": "esnli",
}


# ---------------------------------------------------------------------------
# Dataset loading


class TestEntailmentRows:
    def test_round_trip(self, tmp_path):
        problems = [
            NLIProblem(
                id="a",
                premise_text="Premise one.",
                hypothesis_text="Hypothesis one.",
                explanation=(Fact("f1", "Fact one."), Fact("f2", "Fact two.")),
                dataset="esnli",
            ),
            NLIProblem(
                id="b",
                premise_text=None,
                hypothesis_text="Hypothesis two.",
                explanation=(),
            ),
        ]
        path = str(tmp_path / "round.jsonl")
        save_problems(problems, path)
        assert load_problems(path) == problems

    def test_fields_are_stripped_and_blank_premise_dropped(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        row = dict(ROW, premise="   ", hypothesis="  Tidy.  ", explanation=[" x "])
        write_jsonl(path, [row])
        (problem,) = load_problems(path)
        assert problem.premise_text is None
        assert problem.hypothesis_text == "Tidy."
        assert problem.explanation == (Fact("f1", "x"),)
        assert problem.dataset == "esnli"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW, "", "   "])
        assert len(load_problems(path)) == 1

    def test_missing_hypothesis(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        row = {k: v for k, v in ROW.items() if k != "hypothesis"}
        write_jsonl(path, [ROW | {"id": "other"}, row])
        with pytest.raises(SchemaError) as exc:
            load_problems(path)
        assert exc.value.line == 2
        assert exc.value.field == "hypothesis"

    def test_broken_json_names_the_line(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW, "{not json"])
        with pytest.raises(SchemaError) as exc:
            load_problems(path)
        assert exc.value.line == 2
        assert exc.value.field == "-"

    def test_non_object_row(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, ["[1, 2]"])
        with pytest.raises(SchemaError, match="must be an object"):
            load_problems(path)

    def test_empty_id(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW | {"id": ""}])
        with pytest.raises(SchemaError) as exc:
            load_problems(path)
        assert exc.value.field == "id"

    def test_premise_must_be_string_or_null(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW | {"premise": 7}])
        with pytest.raises(SchemaError) as exc:
            load_problems(path)
        assert exc.value.field == "premise"

    def test_explanation_entries_are_validated(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW | {"explanation": ["ok", "  "]}])
        with pytest.raises(SchemaError, match="entry 1"):
            load_problems(path)

    def test_empty_dataset_tag_rejected(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW | {"dataset": ""}])
        with pytest.raises(SchemaError) as exc:
            load_problems(path)
        assert exc.value.field == "dataset"

    def test_duplicate_ids(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        write_jsonl(path, [ROW, ROW | {"hypothesis": "Different."}])
        with pytest.raises(DuplicateId) as exc:
            load_problems(path)
        assert exc.value.problem_id == "p1"
        assert exc.value.line == 2


MCQA_ROW = {
    "id": "q1",
    "question": "What conducts electricity?",
    "options": ["wood", "copper"],
    "answer_index": 1,
    "explanation": ["Copper is a metal.", "Metals conduct electricity."],
    "dataset": "qasc",
}


class TestMCQAConversion:
    def convert(self, question, options, answer_index=0):
        return mcqa_hypothesis(question, options[answer_index])

    def test_blank_marker_receives_the_answer(self):
        assert (
            self.convert("A magnet will stick to ____.", ["a steel door"])
            == "A magnet will stick to a steel door."
        )

    def test_only_the_first_blank_is_filled(self):
        assert self.convert("__ melts before __", ["ice"]) == "ice melts before __"

    def test_leading_wh_word_is_replaced(self):
        assert (
            self.convert("What conducts electricity?", ["wood", "copper"], 1)
            == "copper conducts electricity"
        )

    def test_mid_sentence_wh_word_is_replaced(self):
        assert (
            self.convert("Metals do what when heated?", ["expand"])
            == "Metals do expand when heated"
        )

    def test_wh_matching_ignores_case(self):
        assert (
            self.convert("WHERE do bats sleep?", ["in caves"])
            == "in caves do bats sleep"
        )

    def test_answer_appended_when_nothing_matches(self):
        assert (
            self.convert("The moon orbits the earth", ["monthly"])
            == "The moon orbits the earth monthly"
        )

    def test_question_mark_and_padding_are_tidied(self):
        assert (
            self.convert("Plants need ____ to grow ?", ["sunlight"])
            == "Plants need sunlight to grow"
        )

    def test_whitespace_collapses(self):
        assert (
            self.convert("Sound  travels   through ____  best", ["steel"])
            == "Sound travels through steel best"
        )

    def test_converted_problem_shape(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        write_jsonl(path, [MCQA_ROW])
        assert load_problems(path) == [
            NLIProblem(
                id="q1",
                premise_text=None,
                hypothesis_text="copper conducts electricity",
                explanation=(
                    Fact("f1", "Copper is a metal."),
                    Fact("f2", "Metals conduct electricity."),
                ),
                dataset="qasc",
            )
        ]

    def test_loading_detects_mixed_formats(self, tmp_path):
        path = str(tmp_path / "mixed.jsonl")
        write_jsonl(path, [ROW, MCQA_ROW])
        problems = load_problems(path)
        assert [p.premise_text for p in problems] == ["A premise.", None]
        assert problems[1].hypothesis_text == "copper conducts electricity"

    def test_boolean_answer_index_rejected(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        write_jsonl(path, [MCQA_ROW | {"answer_index": True}])
        with pytest.raises(SchemaError) as exc:
            load_problems(path)
        assert exc.value.field == "answer_index"

    def test_answer_index_bounds_checked_on_load(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        write_jsonl(path, [MCQA_ROW | {"answer_index": 2}])
        with pytest.raises(SchemaError, match="outside the options"):
            load_problems(path)

    def test_a_row_with_a_question_is_multiple_choice(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        both = MCQA_ROW | {"premise": "Ignored.", "hypothesis": "Ignored."}
        write_jsonl(path, [both])
        [problem] = load_problems(path)
        assert problem.premise_text is None
        assert problem.hypothesis_text == "copper conducts electricity"


# ---------------------------------------------------------------------------
# Report aggregation


def make_record(
    status="valid",
    syntax_before=0,
    syntax_after=0,
    suggested=0,
    processed=0,
    elapsed=0.0,
):
    explanation = (Fact("f1", "a sentence"),)
    if status == "valid":
        report = build_report("valid", [], elapsed, None)
        feedback = None
    else:
        message = ProverMessage(
            "error",
            "Failed to finish proof: goal is not entailed from the "
            "assumptions at domain bound 3",
        )
        report = build_report("failed", [message], elapsed, None)
        feedback = FeedbackBundle("proof failed")
    return IterationRecord(
        explanation_before=explanation,
        theory=None,
        syntax_iterations_used=0,
        syntax_errors_before=syntax_before,
        syntax_errors_after=syntax_after,
        report=report,
        feedback=feedback,
        explanation_after=explanation,
        proof_steps_suggested=suggested,
        proof_steps_processed=processed,
    )


def make_trace(problem_id, dataset, status, rounds, records):
    return RefinementTrace(
        problem_id=problem_id,
        dataset=dataset,
        iterations=tuple(records),
        final_status=status,
        total_iterations=rounds,
    )


def synthetic_improvement_corpus():
    """100 one-record traces embodying a run where refinement lifts
    validity from 36% to 84% and the repair sub-loop cuts mean syntax
    errors from 7.82 to 2.45 per iteration."""
    statuses = (
        ["valid_initially"] * 36 + ["refined_valid"] * 48 + ["exhausted_invalid"] * 16
    )
    before = [8] * 82 + [7] * 18
    after = [3] * 45 + [2] * 55
    traces = []
    for i, status in enumerate(statuses):
        if status == "valid_initially":
            rounds, record_status = 0, "valid"
        elif status == "refined_valid":
            rounds, record_status = (i % 3) + 1, "valid"
        else:
            rounds, record_status = 10, "failed"
        traces.append(
            make_trace(
                "syn_%03d" % i,
                ("esnli", "qasc")[i % 2],
                status,
                rounds,
                [make_record(record_status, before[i], after[i])],
            )
        )
    return traces


class TestReportAggregation:
    def test_improvement_corpus_numbers(self):
        report = aggregate(synthetic_improvement_corpus())
        stats = report.overall
        assert stats.problems == 100
        assert stats.valid_initially == 36
        assert stats.refined_valid == 48
        assert stats.exhausted_invalid == 16
        assert stats.iteration_records == 100
        assert stats.syntax_errors_before_total == 782
        assert stats.syntax_errors_after_total == 245
        assert "%.2f" % (stats.validity_rate_initial * 100) == "36.00"
        assert "%.2f" % (stats.validity_rate_final * 100) == "84.00"
        assert "%.2f" % stats.mean_syntax_errors_before == "7.82"
        assert "%.2f" % stats.mean_syntax_errors_after == "2.45"
        assert "%.2f" % stats.syntax_reduction_pct == "68.67"

    def test_improvement_corpus_csv_row(self):
        rendered = render_csv(aggregate(synthetic_improvement_corpus()))
        rows = list(csv.reader(io.StringIO(rendered)))
        assert rows[0][0] == "dataset"
        assert rows[-1] == [
            "overall",
            "100",
            "36",
            "48",
            "16",
            "36.00",
            "84.00",
            "7.82",
            "2.45",
            "68.67",
        ]
        assert [row[0] for row in rows[1:-1]] == ["esnli", "qasc"]

    def test_aggregation_ignores_trace_order(self):
        def order_insensitive(stats):
            stats = dict(stats)
            # The paired series follow input order by design; the
            # aggregate numbers must not.
            stats["step_pairs"] = sorted(map(tuple, stats["step_pairs"]))
            stats["time_by_steps"] = sorted(map(tuple, stats["time_by_steps"]))
            return stats

        traces = synthetic_improvement_corpus()
        shuffled = traces[:]
        random.Random(7).shuffle(shuffled)
        base = report_to_dict(aggregate(traces))
        moved = report_to_dict(aggregate(shuffled))
        assert order_insensitive(base["overall"]) == order_insensitive(
            moved["overall"]
        )
        assert sorted(base["per_dataset"]) == sorted(moved["per_dataset"])
        for name in base["per_dataset"]:
            assert order_insensitive(
                base["per_dataset"][name]
            ) == order_insensitive(moved["per_dataset"][name])

    def test_histogram_counts_only_rescued_problems(self):
        traces = [
            make_trace("a", "d", "valid_initially", 0, [make_record("valid")]),
            make_trace("b", "d", "refined_valid", 2, [make_record("valid")]),
            make_trace("c", "d", "refined_valid", 2, [make_record("valid")]),
            make_trace("e", "d", "refined_valid", 5, [make_record("valid")]),
            make_trace("f", "d", "exhausted_invalid", 10, [make_record("failed")]),
        ]
        stats = aggregate(traces).overall
        assert stats.iteration_histogram == {2: 2, 5: 1}
        assert list(stats.iteration_histogram) == [2, 5]

    def test_step_pairs_and_times(self):
        first = make_trace(
            "a",
            "d",
            "valid_initially",
            0,
            [make_record("valid", suggested=3, processed=2, elapsed=1.5)],
        )
        second = make_trace(
            "b",
            "d",
            "refined_valid",
            1,
            [
                make_record("failed", suggested=2, processed=1, elapsed=0.7),
                make_record("valid", suggested=3, processed=3, elapsed=0.25),
            ],
        )
        stats = aggregate([first, second]).overall
        assert stats.iteration_records == 3
        assert stats.step_pairs == ((3, 2), (2, 1), (3, 3))
        # Solve times are paired with step counts only for valid checks.
        assert stats.time_by_steps == ((2, 1.5), (3, 0.25))

    def test_grouping_by_dataset(self):
        traces = synthetic_improvement_corpus()
        report = aggregate(traces)
        assert sorted(report.per_dataset) == ["esnli", "qasc"]
        assert report.per_dataset["esnli"].problems == 50
        assert report.per_dataset["qasc"].problems == 50
        total = sum(s.problems for s in report.per_dataset.values())
        assert total == report.overall.problems

    def test_outcomes_must_partition_problems(self):
        with pytest.raises(ValueError, match="partition"):
            DatasetStats(
                problems=2,
                valid_initially=1,
                refined_valid=0,
                exhausted_invalid=0,
                iteration_histogram={},
                iteration_records=0,
                syntax_errors_before_total=0,
                syntax_errors_after_total=0,
                step_pairs=(),
                time_by_steps=(),
            )

    def test_empty_run(self):
        report = aggregate([])
        assert report.overall.problems == 0
        assert report.overall.validity_rate_final == 0.0
        assert report.per_dataset == {}
        text = render_text(report)
        assert "(none)" in text

    def test_text_rendering_layout(self):
        text = render_text(aggregate(synthetic_improvement_corpus()))
        lines = text.splitlines()
        assert lines[0].split() == [
            "dataset",
            "problems",
            "valid_initially",
            "refined_valid",
            "exhausted_invalid",
            "validity_initial_pct",
            "validity_final_pct",
            "syntax_before_mean",
            "syntax_after_mean",
            "syntax_reduction_pct",
        ]
        overall = [l for l in lines if l.startswith("overall")]
        assert len(overall) == 1
        assert "84.00" in overall[0]
        assert "rounds needed when refinement succeeded:" in text
        assert "   1: %s" % ("#" * 16) in lines

    def test_json_rendering_round_trips(self):
        report = aggregate(synthetic_improvement_corpus())
        data = json.loads(render_json(report))
        assert data["overall"]["problems"] == 100
        assert data["overall"]["iteration_histogram"] == {
            "1": 16,
            "2": 16,
            "3": 16,
        }
        assert data["per_dataset"]["esnli"]["problems"] == 50


# ---------------------------------------------------------------------------
# Batch runner


def replay_cfg(cache_name):
    return RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode="replay",
        cache=TranscriptCache(os.path.join(DATA_DIR, "replay", cache_name)),
        transport=None,
    )


class TestNestingHeadroom:
    def test_fixtures_and_bench_plans_stay_below_the_nesting_bound(
        self, monkeypatch
    ):
        import verifine.logic
        from verifine.theory import parse_proof_block

        deepest = [0]
        nested = verifine.logic._Parser.nested

        def recording(parser, parse, *args):
            deepest[0] = max(deepest[0], parser.depth + 1)
            return nested(parser, parse, *args)

        monkeypatch.setattr(verifine.logic._Parser, "nested", recording)
        # Texts parsed by earlier tests would be answered from the memo
        # without reaching the parser.
        parse_formula.cache_clear()
        parse_inner_formula.cache_clear()
        for problems, cache in (
            ("batch50.jsonl", "batch50.jsonl"),
            ("esnli_pairs.jsonl", "esnli.jsonl"),
        ):
            loaded = load_problems(os.path.join(DATA_DIR, problems))
            run_batch(loaded, replay_cfg(cache))
        bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        monkeypatch.syspath_prepend(bench_dir)
        from workloads import SIZES, make_plan

        for workload in sorted(SIZES):
            plan = make_plan(workload, seed=1, size=40)
            for _, _, formula in plan["formulas"]:
                parse_formula(formula)
            for _, _, lines in plan["proofs"]:
                parse_proof_block("\n".join(lines))
        assert 0 < deepest[0] < verifine.logic.MAX_NESTING


class TestSafeStem:
    def test_sanitises_and_deduplicates(self):
        taken = set()
        assert _safe_stem("plain-id_1", taken) == "plain-id_1"
        assert _safe_stem("weird id/..", taken) == "weird_id_.."
        assert _safe_stem("weird id:..", taken) == "weird_id_.._2"
        assert _safe_stem("weird id;..", taken) == "weird_id_.._3"

    def test_empty_id_gets_a_name(self):
        assert _safe_stem("", set()) == "problem"


class TestRunBatch:
    def test_replayed_corpus_with_worker_pool(self, tmp_path):
        problems = load_problems(os.path.join(DATA_DIR, "batch50.jsonl"))
        assert len(problems) == 50
        out_dir = str(tmp_path / "traces")
        started = time.monotonic()
        traces = run_batch(problems, replay_cfg("batch50.jsonl"), out_dir, workers=4)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, "batch replay took %.1fs" % elapsed
        assert [t.problem_id for t in traces] == [p.id for p in problems]
        for i, trace in enumerate(traces):
            expected = "valid_initially" if i % 2 == 0 else "refined_valid"
            assert trace.final_status == expected
            path = os.path.join(out_dir, "trace_%s.json" % trace.problem_id)
            with open(path, "r", encoding="utf-8") as fh:
                restored = trace_from_dict(json.load(fh))
            assert restored.problem_id == trace.problem_id
            assert restored.final_status == trace.final_status
            assert len(restored.iterations) == len(trace.iterations)
        report = aggregate(traces).overall
        assert report.problems == 50
        assert report.valid_initially == 25
        assert report.refined_valid == 25
        assert report.iteration_histogram == {1: 25}

    def test_replayed_corpus_is_deterministic(self):
        problems = load_problems(os.path.join(DATA_DIR, "batch50.jsonl"))[:6]
        first = run_batch(problems, replay_cfg("batch50.jsonl"), workers=3)
        second = run_batch(problems, replay_cfg("batch50.jsonl"), workers=1)
        for left, right in zip(first, second):
            assert scrub_elapsed(trace_to_dict(left)) == scrub_elapsed(
                trace_to_dict(right)
            )

    def test_batches_on_one_config_share_no_verdicts(self, monkeypatch):
        import verifine.prover.oracle

        decided = []
        entails = verifine.prover.oracle.entails

        def spy(premises, goal, fresh_constants, deadline=None):
            decided.append((tuple(premises), goal))
            return entails(premises, goal, fresh_constants, deadline)

        monkeypatch.setattr(verifine.prover.oracle, "entails", spy)
        problems = load_problems(os.path.join(DATA_DIR, "batch50.jsonl"))[:2]
        cfg = replay_cfg("batch50.jsonl")
        # Each problem twice: the second copy repeats every entailment.
        run_batch(problems + problems, cfg)
        first, decided[:] = list(decided), []
        assert first and len(set(first)) == len(first)
        run_batch(problems, cfg)
        assert len(decided) == len(first) and set(decided) == set(first)

    def test_crashing_problem_yields_failure_trace(self, tmp_path):
        problems = batch_problems()[:2]
        poison = problems[1].premise_text
        from fixtures_e2e import batch_transport

        inner = batch_transport()

        def transport(request):
            if poison in request["prompt"]:
                raise RuntimeError("simulated transport crash")
            return inner(request)

        cfg = RefinerConfig(
            llm=gateway_config(),
            backend=GroundOracle(),
            mode="live",
            transport=transport,
        )
        seen = []
        out_dir = str(tmp_path / "t")
        traces = run_batch(
            problems, cfg, out_dir, workers=2, on_result=seen.append
        )
        assert len(seen) == 2
        assert traces[0].final_status == "valid_initially"
        failed = traces[1]
        assert failed.final_status == "exhausted_invalid"
        assert failed.iterations == ()
        assert failed.diagnostic == "pipeline error: simulated transport crash"
        names = sorted(os.listdir(out_dir))
        assert names == ["trace_batch_000.json", "trace_batch_001.json"]

    def test_failed_trace_write_leaves_no_trace_file(self, tmp_path, monkeypatch):
        import verifine.batch

        def failing_dump(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        problems = load_problems(os.path.join(DATA_DIR, "batch50.jsonl"))[:1]
        out_dir = tmp_path / "t"
        monkeypatch.setattr(verifine.batch.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            run_batch(problems, replay_cfg("batch50.jsonl"), str(out_dir))
        assert os.listdir(out_dir) == []

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_batch([], replay_cfg("batch50.jsonl"), workers=0)

    def test_repeated_ids_keep_every_trace(self, tmp_path, monkeypatch):
        import verifine.batch

        def echo(problem, cfg):
            return RefinementTrace(
                problem.id, problem.dataset, (), "valid_initially", 0,
                diagnostic=problem.hypothesis_text,
            )

        monkeypatch.setattr(verifine.batch, "run_refiner", echo)
        problems = [NLIProblem("p", None, text, ()) for text in ("One.", "Two.")]
        out_dir = tmp_path / "t"
        traces = run_batch(problems, replay_cfg("batch50.jsonl"), str(out_dir), workers=2)
        assert [t.diagnostic for t in traces] == ["One.", "Two."]
        assert sorted(os.listdir(out_dir)) == ["trace_p.json", "trace_p_2.json"]
        for name, text in (("trace_p.json", "One."), ("trace_p_2.json", "Two.")):
            with open(out_dir / name, "r", encoding="utf-8") as fh:
                assert json.load(fh)["diagnostic"] == text

    def test_one_worker_reports_problems_in_input_order(self, monkeypatch):
        import verifine.batch

        def instant(problem, cfg):
            return RefinementTrace(
                problem.id, problem.dataset, (), "valid_initially", 0
            )

        monkeypatch.setattr(verifine.batch, "run_refiner", instant)
        problems = [
            NLIProblem("p%03d" % i, None, "A hypothesis.", ()) for i in range(200)
        ]
        seen = []
        run_batch(problems, replay_cfg("batch50.jsonl"), on_result=seen.append)
        assert [t.problem_id for t in seen] == [p.id for p in problems]


# ---------------------------------------------------------------------------
# Command-line interface


def unprovable_theory_text():
    goal = parse_formula("∃x. Ghost(x)")
    doc = TheoryDoc("unprovable_case", (), TheoremBlock(None, goal))
    return doc.rendered


ISABELLE_PORT_UNUSED = (
    "--isabelle-port is unused with --backend oracle; add --backend "
    "isabelle to check on that server"
)


class TestCLI:
    def run(self, *argv):
        return main(list(argv))

    def test_refine_replays_a_worked_example(self, tmp_path, capsys):
        out_dir = str(tmp_path / "traces")
        code = self.run(
            "refine",
            "--problems",
            os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
            "--id",
            "esnli_lady_book",
            "--model",
            "scripted-model",
            "--mode",
            "replay",
            "--cache",
            os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
            "--out",
            out_dir,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "esnli_lady_book: refined_valid after 2 refinement round(s)" in out
        with open(os.path.join(out_dir, "trace_esnli_lady_book.json")) as fh:
            trace = trace_from_dict(json.load(fh))
        assert trace.final_status == "refined_valid"
        assert trace.total_iterations == 2

    def test_refine_keeps_ids_that_sanitise_alike_apart(self, tmp_path, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        problems = str(tmp_path / "problems.jsonl")
        write_jsonl(problems, [dict(ROW, id="a.b"), dict(ROW, id="a_b")])
        out_dir = tmp_path / "traces"
        code = self.run(
            "refine",
            "--problems",
            problems,
            "--model",
            "m",
            "--mode",
            "replay",
            "--cache",
            str(tmp_path / "empty.jsonl"),
            "--backend",
            "isabelle",
            "--isabelle-port",
            str(port),
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["trace_a.b.json", "trace_a_b.json"]
        for name, problem_id in (("trace_a.b.json", "a.b"), ("trace_a_b.json", "a_b")):
            with open(out_dir / name) as fh:
                trace = trace_from_dict(json.load(fh))
            assert trace.problem_id == problem_id
            assert trace.diagnostic.startswith("backend unavailable")

    def test_refine_turns_a_crashing_problem_into_a_failure_trace(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "traces"
        code = self.run(
            "refine",
            "--problems",
            os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
            "--id",
            "esnli_bartender",
            "--model",
            "m",
            "--mode",
            "replay",
            "--cache",
            str(tmp_path / "empty.jsonl"),
            "--out",
            str(out_dir),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == "esnli_bartender: exhausted_invalid after 0 refinement round(s)\n"
        with open(out_dir / "trace_esnli_bartender.json") as fh:
            trace = trace_from_dict(json.load(fh))
        assert trace.iterations == ()
        assert trace.diagnostic.startswith("pipeline error: ")

    def test_batch_prints_summary_table(self, tmp_path, capsys):
        code = self.run(
            "batch",
            "--problems",
            os.path.join(DATA_DIR, "batch50.jsonl"),
            "--model",
            "scripted-model",
            "--mode",
            "replay",
            "--cache",
            os.path.join(DATA_DIR, "replay", "batch50.jsonl"),
            "--out",
            str(tmp_path / "traces"),
            "--workers",
            "2",
        )
        assert code == 0
        out = capsys.readouterr().out
        overall = [l for l in out.splitlines() if l.startswith("overall")]
        assert len(overall) == 1
        cells = overall[0].split()
        assert cells[1:5] == ["50", "25", "25", "0"]
        assert "esnli" in out and "qasc" in out and "worldtree" in out
        assert len(os.listdir(tmp_path / "traces")) == 50

    def test_report_from_trace_directory(self, tmp_path, capsys):
        problems = load_problems(os.path.join(DATA_DIR, "esnli_pairs.jsonl"))
        out_dir = str(tmp_path / "traces")
        run_batch(problems, replay_cfg("esnli.jsonl"), out_dir)
        code = self.run("report", "--traces", out_dir)
        assert code == 0
        out = capsys.readouterr().out
        overall = [l for l in out.splitlines() if l.startswith("overall")]
        assert overall and overall[0].split()[1:5] == ["2", "0", "2", "0"]
        assert "  2: ##" in out

    def test_report_csv_written_to_file(self, tmp_path):
        problems = load_problems(os.path.join(DATA_DIR, "esnli_pairs.jsonl"))
        out_dir = str(tmp_path / "traces")
        run_batch(problems, replay_cfg("esnli.jsonl"), out_dir)
        csv_path = str(tmp_path / "summary.csv")
        single = os.path.join(out_dir, "trace_esnli_bartender.json")
        code = self.run(
            "report", "--traces", single, "--format", "csv", "--out", csv_path
        )
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0:3] == ["overall", "1", "0"]

    def test_report_without_traces_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace files"):
            self.run("report", "--traces", str(tmp_path))

    def test_report_skips_an_unreadable_trace(self, tmp_path, capsys):
        problems = load_problems(os.path.join(DATA_DIR, "esnli_pairs.jsonl"))[:1]
        out_dir = str(tmp_path / "traces")
        run_batch(problems, replay_cfg("esnli.jsonl"), out_dir)
        assert self.run("report", "--traces", out_dir) == 0
        alone = capsys.readouterr()
        corrupt = os.path.join(out_dir, "trace_torn.json")
        with open(corrupt, "w", encoding="utf-8") as fh:
            fh.write('{"problem_id": ')
        assert self.run("report", "--traces", out_dir) == 0
        captured = capsys.readouterr()
        assert captured.out == alone.out
        assert captured.out.count("overall") == 1
        prefix = "warning: skipped 1 unreadable trace file(s): %s (" % corrupt
        assert captured.err.startswith(prefix)
        assert "JSONDecodeError" in captured.err
        assert captured.err.count("\n") == 1

    def test_report_with_only_unreadable_traces_exits(self, tmp_path, capsys):
        corrupt = str(tmp_path / "trace_x.json")
        with open(corrupt, "w", encoding="utf-8") as fh:
            fh.write("[]")
        with pytest.raises(SystemExit, match="no trace files"):
            self.run("report", "--traces", corrupt)
        assert corrupt in capsys.readouterr().err

    def test_formalise_writes_theory_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "theories")
        code = self.run(
            "formalise",
            "--problems",
            os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
            "--id",
            "esnli_bartender",
            "--model",
            "scripted-model",
            "--mode",
            "replay",
            "--cache",
            os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
            "--out",
            out_dir,
        )
        assert code == 0
        path = os.path.join(out_dir, "esnli_bartender.thy")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("theory esnli_bartender")
        assert "axiomatization" in text
        assert "theorem hypothesis:" in text

    def test_formalise_keeps_ids_that_sanitise_alike_apart(self, tmp_path, capsys):
        with open(os.path.join(DATA_DIR, "esnli_pairs.jsonl")) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        (row,) = [r for r in rows if r["id"] == "esnli_bartender"]
        problems = str(tmp_path / "problems.jsonl")
        write_jsonl(problems, [dict(row, id="a.b"), dict(row, id="a_b")])
        out_dir = tmp_path / "theories"
        code = self.run(
            "formalise",
            "--problems",
            problems,
            "--model",
            "scripted-model",
            "--mode",
            "replay",
            "--cache",
            os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["a_b.thy", "a_b_2.thy"]
        for stem in ("a_b", "a_b_2"):
            text = (out_dir / (stem + ".thy")).read_text(encoding="utf-8")
            assert text.startswith("theory %s\n" % stem)
            assert parse_theory(text).name == stem

    def test_formalise_reports_a_malformed_reply(self, tmp_path, capsys):
        code = self.run(
            "formalise",
            "--problems",
            os.path.join(DATA_DIR, "paths.jsonl"),
            "--id",
            "paths_events_no_fence",
            "--model",
            "scripted-model",
            "--mode",
            "replay",
            "--cache",
            os.path.join(DATA_DIR, "replay", "paths.jsonl"),
            "--out",
            str(tmp_path / "theories"),
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "paths_events_no_fence: FAILED (stage detect_events failed: "
            "no fenced code block in response)\n"
        )

    @pytest.mark.parametrize(
        "command, flag, value, refusal",
        [
            ("refine", "--domain-bound", "0", "domain_bound must be >= 1"),
            ("batch", "--workers", "0", "workers must be >= 1"),
            ("refine", "--temperature", "5", "temperature must be within [0, 2]"),
            ("refine", "--temperature", "nan", "temperature must be within [0, 2]"),
            ("refine", "--max-tokens", "0", "max_tokens must be >= 1"),
            (
                "refine",
                "--max-iterations",
                "-1",
                "max_refinement_iterations must be >= 0",
            ),
            ("batch", "--syntax-iterations", "-5", "syntax_iterations must be >= 0"),
            ("refine", "--timeout", "-1", "timeout_s must be > 0"),
            ("refine", "--timeout", "nan", "timeout_s must be > 0"),
            ("verify", "--timeout", "-1", "timeout_s must be > 0"),
            ("verify", "--timeout", "0", "timeout_s must be > 0"),
            ("verify", "--timeout", "nan", "timeout_s must be > 0"),
            ("verify", "--isabelle-port", "9999", ISABELLE_PORT_UNUSED),
            ("batch", "--isabelle-port", "9999", ISABELLE_PORT_UNUSED),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(
        self, command, flag, value, refusal, tmp_path, capsys
    ):
        out_dir = tmp_path / "traces"
        if command == "verify":
            inputs = ["--theory", os.path.join(DATA_DIR, "violin_golden.thy")]
        else:
            inputs = [
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "scripted-model",
                "--mode",
                "replay",
                "--cache",
                os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
                "--out",
                str(out_dir),
            ]
        with pytest.raises(SystemExit) as exc:
            self.run(command, *inputs, flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: verifine %s " % command)
        assert err.endswith("verifine %s: error: %s\n" % (command, refusal))
        assert not out_dir.exists()

    def test_format_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run(
                "batch",
                "--format",
                "mcqa",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "scripted-model",
                "--mode",
                "replay",
                "--cache",
                os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
                "--out",
                str(tmp_path / "traces"),
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --format mcqa" in capsys.readouterr().err

    def test_corrupt_cache_exits_with_a_message(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        record = {"key": "k", "prompt": "p", "response": "r", "timestamp": "t"}
        cache.write_text("not json\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            self.run(
                "refine",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "scripted-model",
                "--mode",
                "replay",
                "--cache",
                str(cache),
                "--out",
                str(tmp_path / "traces"),
            )
        message = str(exc.value.code)
        assert message.startswith("cannot load cache %s: " % cache)
        assert "line 1" in message

    def test_verify_valid_theory(self, capsys):
        code = self.run(
            "verify",
            "--theory",
            os.path.join(DATA_DIR, "violin_golden.thy"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("status: valid")

    def test_verify_invalid_theory(self, tmp_path, capsys):
        path = str(tmp_path / "unprovable.thy")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(unprovable_theory_text())
        code = self.run("verify", "--theory", path)
        assert code == 1
        out = capsys.readouterr().out
        assert "status: failed" in out
        assert "first error class: proof_failure" in out

    def test_verify_unparseable_theory(self, tmp_path):
        path = str(tmp_path / "junk.thy")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lemma nothing")
        with pytest.raises(SystemExit, match="cannot parse"):
            self.run("verify", "--theory", path)

    def test_unknown_problem_id_exits(self):
        with pytest.raises(SystemExit, match="unknown problem ids: nope"):
            self.run(
                "refine",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--id",
                "nope",
                "--model",
                "m",
                "--mode",
                "replay",
                "--cache",
                os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
            )

    def test_live_mode_requires_endpoint(self):
        with pytest.raises(SystemExit, match="--llm-endpoint is required"):
            self.run(
                "refine",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "m",
            )

    def test_replay_mode_requires_cache(self):
        with pytest.raises(SystemExit, match="--cache is required"):
            self.run(
                "refine",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "m",
                "--mode",
                "replay",
            )

    def test_bad_stage_model_override(self):
        with pytest.raises(SystemExit, match="bad --stage-model"):
            self.run(
                "refine",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "m",
                "--mode",
                "replay",
                "--cache",
                os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
                "--stage-model",
                "not_a_stage=m",
            )

    def test_stage_model_override_reaches_the_config(self):
        args = build_parser().parse_args(
            [
                "refine",
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--model",
                "base",
                "--mode",
                "replay",
                "--cache",
                os.path.join(DATA_DIR, "replay", "esnli.jsonl"),
                "--stage-model",
                "refine_explanation=big",
            ]
        )
        cfg = _llm_config(args)
        assert cfg.model_for(StageKind.REFINE_EXPLANATION) == "big"
        assert cfg.model_for(StageKind.SENTENCE_TO_LOGIC) == "base"

    @pytest.mark.parametrize("command", ["formalise", "refine", "batch"])
    def test_cache_in_live_mode_exits(self, command, tmp_path):
        cache = tmp_path / "transcripts.jsonl"
        with pytest.raises(SystemExit, match="--mode record"):
            self.run(
                command,
                "--problems",
                os.path.join(DATA_DIR, "esnli_pairs.jsonl"),
                "--out",
                str(tmp_path / "out"),
                "--model",
                "m",
                "--mode",
                "live",
                "--llm-endpoint",
                "http://127.0.0.1:9/v1/chat/completions",
                "--cache",
                str(cache),
            )
        assert not cache.exists()

    def test_isabelle_backend_requires_port(self):
        with pytest.raises(SystemExit, match="--isabelle-port"):
            self.run(
                "verify",
                "--theory",
                os.path.join(DATA_DIR, "violin_golden.thy"),
                "--backend",
                "isabelle",
            )

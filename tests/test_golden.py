"""The refactor gate: replay every recorded corpus and compare each
scrubbed trace with its golden line, byte for byte.

Three corpora are replayed: the two worked examples (esnli), the
50-problem batch and the paths corpus.  The paths corpus exists to take
the paths the other two never reach, and the coverage test below fails
when a regenerated corpus silently stops reaching one of them.
Regenerate the data with `python3 tests/make_replay_fixtures.py`.
"""

import json
import os
import re

import pytest

import verifine.pipeline
from verifine.datasets import load_problems
from verifine.llm import TranscriptCache, last_fenced_block
from verifine.llmtypes import StageKind
from verifine.pipeline import RefinerConfig, run_refiner
from verifine.prover import GroundOracle
from verifine.theory import DanglingFactReference, TheoryDoc, TheoryParseError

from fixtures_e2e import (
    CORPORA,
    SYNTAX_MARKER,
    corpus_sessions,
    gateway_config,
    golden_line,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def replay(corpus, served=None):
    """Replay one corpus; returns its problems and its traces.  A `served`
    list receives every (stage, reply, parse) the stages extracted, in
    call order, where `parse` is the stage's own parser with its
    arguments bound."""
    problems_file, cache_file, _ = CORPORA[corpus]
    problems = load_problems(os.path.join(DATA_DIR, problems_file))
    cfg = RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode="replay",
        cache=TranscriptCache(os.path.join(DATA_DIR, cache_file)),
    )
    extract = verifine.pipeline.extract_stage_output

    def recording(stage, raw, parse):
        served.append((stage, raw, parse))
        return extract(stage, raw, parse)

    if served is not None:
        verifine.pipeline.extract_stage_output = recording
    try:
        with corpus_sessions(corpus):
            traces = [run_refiner(problem, cfg) for problem in problems]
    finally:
        verifine.pipeline.extract_stage_output = extract
    return problems, traces


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_replay_matches_goldens(corpus):
    with open(os.path.join(DATA_DIR, CORPORA[corpus][2]), encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    problems, traces = replay(corpus)
    assert len(golden) == len(problems)
    for problem, trace, want in zip(problems, traces, golden):
        assert golden_line(trace) == want, problem.id


# ---------------------------------------------------------------------------
# Coverage of the paths corpus

def _outcomes(served, stage):
    """(parse, block, outcome) for each reply to `stage` that has a fenced
    block; the outcome is what the stage's own parser made of the block,
    its value or the exception it raised."""
    for s, raw, parse in served:
        block = last_fenced_block(raw) if s is stage else None
        if block is None:
            continue
        block = block.strip()
        try:
            outcome = parse(block)
        except Exception as exc:
            outcome = exc
        yield parse, block, outcome


def _unknown_ids(parse, block):
    """The ids a rough-inference block lists outside the round's known
    ids: the parser is run again with every word of the block known."""
    known_ids = parse.args[0]
    everything = parse.func(re.findall(r"\w+", block), block)
    listed = everything.relevant_fact_ids + everything.redundant_fact_ids
    return set(listed) - set(known_ids)


def _corpus_rows(corpus):
    with open(os.path.join(DATA_DIR, CORPORA[corpus][0]), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def paths_coverage(problems, traces, served):
    rounds = [r for t in traces for r in t.iterations]
    failed_steps = {r.feedback.failed_step_index for r in rounds if r.feedback}
    covered = {
        "no fence: %s" % stage.value: any(
            s is stage and last_fenced_block(raw) is None for s, raw, _ in served
        )
        for stage in StageKind
    }
    covered.update({
        "unlabelled event line": any(
            isinstance(outcome, ValueError)
            for _, _, outcome in _outcomes(served, StageKind.DETECT_EVENTS)
        ),
        "empty formula": any(
            isinstance(outcome, ValueError)
            for _, _, outcome in _outcomes(served, StageKind.SENTENCE_TO_LOGIC)
        ),
        "rejected formula": any(
            r.theory is None and not r.feedback.error_message.startswith("stage ")
            for r in rounds
        ),
        "unknown ids in rough inference": any(
            not isinstance(outcome, Exception) and _unknown_ids(parse, block)
            for parse, block, outcome in _outcomes(served, StageKind.ROUGH_INFERENCE)
        ),
        "non-id token in rough inference": any(
            isinstance(outcome, ValueError)
            for _, _, outcome in _outcomes(served, StageKind.ROUGH_INFERENCE)
        ),
        "proof without then show": any(
            isinstance(outcome, TheoryParseError)
            and str(outcome).startswith("proof must close with")
            for _, _, outcome in _outcomes(served, StageKind.CONSTRUCT_PROOF)
        ),
        "proof with a dangling citation": any(
            isinstance(outcome, DanglingFactReference)
            for _, _, outcome in _outcomes(served, StageKind.CONSTRUCT_PROOF)
        ),
        "syntax repair that fixes": any(
            isinstance(outcome, TheoryDoc) and SYNTAX_MARKER not in block
            for _, block, outcome in _outcomes(served, StageKind.REFINE_SYNTAX)
        ) and any(
            r.syntax_errors_before and not r.syntax_errors_after
            and r.syntax_iterations_used for r in rounds
        ),
        "syntax repair that leaves the error": any(
            isinstance(outcome, TheoryDoc) and SYNTAX_MARKER in block
            for _, block, outcome in _outcomes(served, StageKind.REFINE_SYNTAX)
        ) and any(r.syntax_errors_after for r in rounds),
        "syntax repair that does not parse": any(
            isinstance(outcome, TheoryParseError)
            for _, _, outcome in _outcomes(served, StageKind.REFINE_SYNTAX)
        ),
        "proof failing at step 0": 0 in failed_steps,
        "proof failing at a later step": any(i for i in failed_steps if i),
        "four-step proof failing at its last step": any(
            len(r.theory.proof) >= 4
            and r.feedback.failed_step_index == len(r.theory.proof) - 1
            for r in rounds if r.feedback and r.feedback.failed_step_index is not None
        ),
        "failed round with a theory but no strategy": any(
            r.theory is not None and r.feedback and r.feedback.strategy is None
            for r in rounds
        ),
        "event semantics four variables wide": any(
            re.match(r"\s*∀(\s*\w+){4,}\s*\.", block) and "Agent(e" in block
            for _, block, _ in _outcomes(served, StageKind.SENTENCE_TO_LOGIC)
        ),
        "blank refinement": any(
            isinstance(outcome, ValueError)
            for _, _, outcome in _outcomes(served, StageKind.REFINE_EXPLANATION)
        ),
        "budget exhaustion": any(
            t.final_status == "exhausted_invalid"
            and t.total_iterations == RefinerConfig.max_refinement_iterations
            for t in traces
        ),
        "mcqa row": any(
            "question" in row and row["id"] in {p.id for p in problems}
            for row in _corpus_rows("paths")
        ),
    })
    return covered


@pytest.fixture(scope="module")
def paths_replay():
    served = []
    problems, traces = replay("paths", served)
    return problems, traces, served


def test_paths_corpus_reaches_every_path(paths_replay):
    covered = paths_coverage(*paths_replay)
    assert [name for name, hit in covered.items() if not hit] == []
    statuses = {t.final_status for t in paths_replay[1]}
    assert statuses == {"valid_initially", "refined_valid", "exhausted_invalid"}


def test_the_coverage_check_sees_a_missing_path(paths_replay):
    problems, traces, served = paths_replay
    kept = [s for s in served if s[0] is not StageKind.REFINE_SYNTAX]
    covered = paths_coverage(problems, traces, kept)
    assert not covered["no fence: refine_syntax"]
    assert not covered["syntax repair that does not parse"]


# ---------------------------------------------------------------------------
# The fixture generator

def _exchanges(path):
    """Each key's (prompt, response) in a transcript cache; a repeated
    key's last line wins, as when the cache loads."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {r["key"]: (r["prompt"], r["response"]) for r in records}


def test_the_generator_reproduces_the_shipped_fixtures(tmp_path):
    import make_replay_fixtures

    make_replay_fixtures.main(["--data-dir", str(tmp_path)])
    for problems_file, cache_file, golden_file in CORPORA.values():
        for name in (problems_file, golden_file):
            with open(os.path.join(DATA_DIR, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name
        # The shipped caches keep repeated lines from older recordings,
        # so they are compared by what they serve.
        assert _exchanges(tmp_path / cache_file) == _exchanges(
            os.path.join(DATA_DIR, cache_file)
        ), cache_file

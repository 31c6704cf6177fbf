"""Tests of the benchmark itself: span arithmetic, instrumentation
hygiene, seeded inputs, the fake servers' protocols, outcome accounting,
and every workload end to end at a tiny size."""

import json
import os
import shutil
import subprocess
import sys

import pytest
import requests

import run
import tracing
from conftest import BENCH, ROOT
from fakes import Fakes
from workloads import ScriptedModel, make_plan


# ---------------------------------------------------------------------------
# Self time


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 7.0, 0),
        _span("c", 2.0, 3.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_merges_overlaps_and_clips_to_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 5.0, 0),
        _span("y", 4.0, 6.0, 0),
        _span("z", 8.0, 12.0, 0),
    ]
    # x and y cover 1..6 (5 s); z covers 8..10 inside the parent (2 s).
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_spans_per_thread():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans[inner][tracing.PARENT] == outer
    assert tracer.spans[outer][tracing.PARENT] is None


def test_instrumentation_restores_every_attribute():
    import verifine.pipeline

    original = verifine.pipeline.check_theory
    inst = tracing.Instrumentation(tracing.Tracer())
    with inst:
        assert verifine.pipeline.check_theory is not original
        saved = list(inst.patches.saved)
        assert all(vars(owner)[attr] is not value for owner, attr, value in saved)
    assert verifine.pipeline.check_theory is original
    assert saved and all(vars(owner)[attr] is value for owner, attr, value in saved)


def test_rounds_reconcile_when_one_session_serves_every_round(tmp_path, monkeypatch):
    """Rounds are counted at _run_iteration, so a pipeline that keeps one
    prover session open across rounds still reconciles."""
    import verifine.pipeline
    from verifine.prover import OracleSession

    class KeptOpen(OracleSession):
        def close(self):
            pass

    shared = KeptOpen(3)
    monkeypatch.setattr(verifine.pipeline, "start_session", lambda backend: shared)
    bench_run = run.Run("replay_batch", 3, 0.0, True, 20, str(tmp_path / "run"))
    bench_run.prepare()
    bench_run.measure()
    bench_run.reconcile()
    assert bench_run.errors == [] and bench_run.failed == 0
    names = [span[tracing.NAME] for span in bench_run.tracer.spans]
    assert names.count("pipeline.round") == sum(c["rounds"] for c in bench_run.traced) > 20
    assert names.count("prover.session_close") == 0


# ---------------------------------------------------------------------------
# Seeded inputs


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_same_seed_gives_identical_inputs(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
    run._bootstrap()
    run.prepare("replay_batch", 5, a, 20)
    run.prepare("replay_batch", 5, b, 20)
    run.prepare("replay_batch", 6, c, 20)
    for name in ("problems.jsonl", "cache.jsonl", "plan.json"):
        assert _read(os.path.join(a, name)) == _read(os.path.join(b, name))
    assert _read(os.path.join(a, "cache.jsonl")) != _read(os.path.join(c, "cache.jsonl"))


def test_event_plan_mixes_widths_and_outcomes():
    plan = make_plan("event_width", 3, 10)
    widths = sorted(p["recipe"][1] for p in plan["problems"])
    statuses = {p["expect"][0] for p in plan["problems"]}
    assert widths.count(3) > widths.count(4) > 0 and widths[0] == 2
    assert statuses == {"valid_initially", "refined_valid", "exhausted_invalid"}
    premises = [p["premise"] for p in plan["problems"]]
    assert len(set(premises)) == len(premises)


# ---------------------------------------------------------------------------
# Fakes


@pytest.fixture
def fakes():
    plan = make_plan("live_shaped", 4, 20)
    srv = Fakes(plan)
    yield srv, plan
    srv.close()


def _chat(port, prompt):
    body = {"model": "m", "messages": [{"role": "user", "content": prompt}]}
    return requests.post("http://127.0.0.1:%d/v1/chat/completions" % port,
                         json=body, timeout=10)


def test_fake_chat_answers_and_counts(fakes):
    from verifine.llm import render_prompt
    from verifine.llmtypes import StageKind

    srv, plan = fakes
    # The limiter refuses the first prompt at seed 4 once; the second
    # goes through.
    role, sentence, formula = plan["formulas"][1]
    prompt = render_prompt(StageKind.SENTENCE_TO_LOGIC,
                           {"sentence": sentence, "role": role, "events": "(none)"})
    reply = _chat(srv.ports["llm_port"], prompt)
    assert reply.status_code == 200
    assert reply.json()["choices"][0]["message"]["content"] == "```\n%s\n```" % formula
    stats = srv.stats()["llm"]
    assert stats["connections"] == 1 and stats["ok"] == 1


def test_fake_chat_refuses_a_limited_prompt_once(fakes):
    srv, _ = fakes
    port = srv.ports["llm_port"]
    # At seed 4 the limiter refuses the first attempt of prompt 64 and
    # lets prompt 0 through; neither has a scripted answer.
    assert _chat(port, "malformed prompt 0").status_code == 400
    assert _chat(port, "malformed prompt 64").status_code == 429
    assert _chat(port, "malformed prompt 64").status_code == 400
    stats = srv.stats()["llm"]
    assert stats["rate_limited"] == 1 and stats["unanswerable"] == 2


def test_fake_isabelle_speaks_the_client_protocol(fakes, tmp_path):
    import tempfile

    from verifine.datasets import load_problems
    from verifine.prover import IsabelleServer, start_session
    from verifine.pipeline import RefinerConfig, formalise

    srv, plan = fakes
    path = str(tmp_path / "problems.jsonl")
    run.write_problems(plan, path)
    problems = {p.id: p for p in load_problems(path)}
    model = ScriptedModel(plan)
    cfg = RefinerConfig(llm=run._llm_config(), backend=None, mode="live",
                        transport=model)
    injected = set(plan["inject_syntax"])
    entry = next(p for p in plan["problems"] if p["id"] in injected)
    doc = formalise(problems[entry["id"]], cfg)
    backend = IsabelleServer("127.0.0.1", srv.ports["prover_port"], srv.ports["password"])
    old = tempfile.tempdir
    tempfile.tempdir = str(tmp_path)
    try:
        handle = start_session(backend)
        first = handle.check_document(doc)
        second = handle.check_document(doc)
        handle.close()
    finally:
        tempfile.tempdir = old
    assert first.status == "failed"
    assert "Inner syntax error" in first.first_error[0].text
    assert first.first_error[0].span is not None
    want = "valid" if entry["expect"][0] == "valid_initially" else "failed"
    assert second.status == want
    stats = srv.stats()["prover"]
    assert stats["connections"] == 1 and stats["injected"] == 1
    assert stats["cmd.session_start"] == 1 and stats["cmd.use_theories"] == 2
    assert stats["cmd.session_stop"] == 1


# ---------------------------------------------------------------------------
# Scaling to the reference host speed


def test_chunks_are_scaled_by_the_readings_that_bracket_them(tmp_path):
    import reference

    ref = reference.REFERENCE_S
    bench_run = run.Run("replay_batch", 1, 0.0, False, None, str(tmp_path))
    # Chunk 0 ran with the host at full speed, chunk 1 at half speed.
    bench_run.references = [ref, ref, 2 * ref]
    bench_run.plain = [{"problems": 100, "wall": 0.5}, {"problems": 100, "wall": 0.75}]
    bench_run.latencies = [[0.004, 0.004], [0.006, 0.006]]
    bench_run.setups = [(0.05, 0.0, 0.0), (0.075, 0.0, 0.0)]
    assert bench_run.scales() == [1.0, pytest.approx(2.0 / 3.0)]
    scaled = bench_run.timings(bench_run.scales())
    assert scaled["problems_per_s"] == pytest.approx(200.0)
    assert scaled["problem_latency_p50_s"] == pytest.approx(0.004)
    assert scaled["setup_s"] == pytest.approx(0.05)
    live = run.Run("live_shaped", 1, 0.0, False, None, str(tmp_path))
    live.plain = bench_run.plain
    live.references = bench_run.references
    assert live.scales() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# Outcome accounting


def test_faults_are_counted_from_the_plan_not_the_label():
    from verifine.pipeline import RefinementTrace

    empty = RefinementTrace("p", "d", (), "exhausted_invalid", 0,
                            diagnostic="pipeline error: no transcript")
    assert "diagnostic" in run.fault(empty, ["exhausted_invalid", 0])
    bare = RefinementTrace("p", "d", (), "exhausted_invalid", 0)
    assert run.fault(bare, ["exhausted_invalid", 0]) == "no iterations"


# ---------------------------------------------------------------------------
# End to end at a tiny size


def _bench_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + list(args),
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", ["replay_batch", "event_width", "live_shaped"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_clean_at_tiny_size(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--size", "10")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 10
    key = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == _bench_metrics(key)
    assert "failed_frac" in done.stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(BENCH, str(tmp_path / "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "replay_batch", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

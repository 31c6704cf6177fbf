"""Regenerate the problem files, transcript caches and golden traces
under tests/data.

Run from the repository root:

    python3 tests/make_replay_fixtures.py [--corpus NAME ...]

The script records each corpus against its scripted transport from
fixtures_e2e as one `run_batch` with one worker, so each distinct prompt
reaches the model once and the cache holds one line per key.  It
sanity-checks the resulting traces, then replays them from the freshly
written caches to prove the recordings are self-contained.
The scrubbed replayed traces become the corpus's golden file, which the
golden test compares every later replay against.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from verifine.batch import run_batch
from verifine.datasets import load_problems
from verifine.llm import TranscriptCache
from verifine.pipeline import RefinerConfig, run_refiner
from verifine.prover import GroundOracle

from helpers import save_problems
from fixtures_e2e import (
    CORPORA,
    worked_example_problems,
    worked_example_transport,
    batch_problems,
    batch_transport,
    corpus_sessions,
    gateway_config,
    golden_line,
    paths_rows,
    paths_transport,
)

LADY_ROUNDS = 2
BARTENDER_ROUNDS = 2


def _config(mode, cache_path, transport):
    return RefinerConfig(
        llm=gateway_config(),
        backend=GroundOracle(),
        mode=mode,
        cache=TranscriptCache(cache_path),
        transport=transport,
    )


def _record_corpus(corpus, problems, transport, data_dir, check):
    """Record `problems` into the corpus's cache and replay them from it.
    The goldens are written only once the replay equals the recording
    and `check` (which raises SystemExit on a wrong verdict) passes."""
    cache_path = os.path.join(data_dir, CORPORA[corpus][1])
    if os.path.exists(cache_path):
        os.remove(cache_path)
    cfg = _config("record", cache_path, transport)
    with corpus_sessions(corpus):
        recorded = run_batch(problems, cfg, workers=1)

    cfg = _config("replay", cache_path, None)
    with corpus_sessions(corpus):
        replayed = [run_refiner(problem, cfg) for problem in problems]
    for problem, first, again in zip(problems, recorded, replayed):
        if golden_line(first) != golden_line(again):
            raise SystemExit(
                "%s: replay of %s diverges from the recording"
                % (corpus, problem.id)
            )
    print(
        "%s: recorded %d problems into %s"
        % (corpus, len(problems), os.path.relpath(cache_path))
    )
    check(replayed)

    golden_path = os.path.join(data_dir, CORPORA[corpus][2])
    os.makedirs(os.path.dirname(golden_path), exist_ok=True)
    with open(golden_path, "w", encoding="utf-8") as fh:
        for trace in replayed:
            fh.write(golden_line(trace) + "\n")
    print(
        "%s: wrote %d golden traces to %s"
        % (corpus, len(replayed), os.path.relpath(golden_path))
    )


def _print_verdicts(traces):
    for trace in traces:
        print(
            "  %s: %s after %d refinement rounds"
            % (trace.problem_id, trace.final_status, trace.total_iterations)
        )


def _check_esnli(traces):
    for trace, rounds in zip(traces, (LADY_ROUNDS, BARTENDER_ROUNDS)):
        if trace.final_status != "refined_valid":
            raise SystemExit(
                "%s ended %s: %s"
                % (trace.problem_id, trace.final_status, trace.diagnostic)
            )
        if trace.total_iterations != rounds:
            raise SystemExit(
                "%s took %d rounds, expected %d"
                % (trace.problem_id, trace.total_iterations, rounds)
            )
    _print_verdicts(traces)


def _check_batch50(traces):
    expected = {0: "valid_initially", 1: "refined_valid"}
    for i, trace in enumerate(traces):
        want = expected[i % 2]
        if trace.final_status != want:
            raise SystemExit(
                "%s ended %s, expected %s (diagnostic: %s)"
                % (trace.problem_id, trace.final_status, want, trace.diagnostic)
            )
    print("batch50: all %d verdicts as expected" % len(traces))


def _record_esnli(data_dir):
    pairs = worked_example_problems()
    _record_corpus("esnli", pairs, worked_example_transport(), data_dir, _check_esnli)
    save_problems(pairs, os.path.join(data_dir, CORPORA["esnli"][0]))


def _record_batch50(data_dir):
    corpus = batch_problems()
    _record_corpus("batch50", corpus, batch_transport(), data_dir, _check_batch50)
    save_problems(corpus, os.path.join(data_dir, CORPORA["batch50"][0]))


def _record_paths(data_dir):
    # Raw rows, so the multiple-choice row stays one on disk.  The
    # coverage test in test_golden.py checks this corpus's paths.
    path = os.path.join(data_dir, CORPORA["paths"][0])
    with open(path, "w", encoding="utf-8") as fh:
        for row in paths_rows():
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    problems = load_problems(path)
    _record_corpus("paths", problems, paths_transport(), data_dir, _print_verdicts)


RECORDERS = {"esnli": _record_esnli, "batch50": _record_batch50, "paths": _record_paths}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "data"),
        help="directory that receives the problem files, caches and goldens",
    )
    parser.add_argument(
        "--corpus",
        action="append",
        choices=sorted(CORPORA),
        help="only this corpus; repeatable (default: all)",
    )
    args = parser.parse_args(argv)

    data_dir = args.data_dir
    os.makedirs(os.path.join(data_dir, "replay"), exist_ok=True)
    for corpus in args.corpus or list(CORPORA):
        RECORDERS[corpus](data_dir)


if __name__ == "__main__":
    main()

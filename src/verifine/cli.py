"""Command-line entry points.

Subcommands:

* formalise  -- autoformalise problems and write theory files
* verify     -- check one theory file against a prover backend
* refine     -- run the full loop on problems from a file, one at a time
                (a one-worker batch run without the summary table)
* batch      -- same, with a worker pool and a summary table
* report     -- aggregate saved traces into a summary table
"""

import argparse
import glob
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional, Set

from .batch import run_batch
from .datasets import DatasetError, load_problems
from .llm import MODES, LLMConfig, MalformedStageOutput, TranscriptCache
from .llmtypes import StageKind
from .logic import sanitize_name
from .pipeline import FormulaRejected, RefinerConfig, formalise, trace_from_dict
from .prover import (
    GroundOracle,
    IsabelleServer,
    check_theory,
    checked_timeout,
    start_session,
)
from .prover.messages import CHECK_TIMEOUT_S, ProverError
from .report import aggregate, render_csv, render_json, render_text
from .theory import TheoryParseError, parse_theory

log = logging.getLogger(__name__)

_STAGE_NAMES = sorted(stage.value for stage in StageKind)


@contextmanager
def _usage_errors(args: argparse.Namespace):
    """A flag value the program refuses (a `ValueError` from what is built
    of it, e.g. a temperature above 2) is a usage error, exit 2."""
    try:
        yield
    except ValueError as exc:
        args.usage_error(str(exc))


def _add_llm_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("language model")
    group.add_argument("--llm-endpoint", default="", help="chat completions URL")
    group.add_argument("--model", required=True, help="model name sent upstream")
    group.add_argument(
        "--temperature",
        type=float,
        default=0.0,
        help="sampling temperature in [0, 2]; at 0 a live refine or batch "
        "run asks each distinct prompt once, above 0 it samples every ask",
    )
    group.add_argument("--max-tokens", type=int, default=2048)
    group.add_argument(
        "--stage-model",
        action="append",
        default=[],
        metavar="STAGE=MODEL",
        help="override the model for one stage; repeatable "
        "(stages: %s)" % ", ".join(_STAGE_NAMES),
    )
    group.add_argument(
        "--mode",
        choices=MODES,
        default="live",
        help="live calls, record to cache, or replay from cache; a refine "
        "or batch run in record mode asks each distinct prompt once, and a "
        "resumed one re-asks the prompts its cache holds",
    )
    group.add_argument("--cache", help="transcript cache path (JSONL)")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("prover backend")
    group.add_argument(
        "--backend", choices=("oracle", "isabelle"), default="oracle"
    )
    group.add_argument(
        "--domain-bound",
        type=int,
        default=3,
        help="fresh constants the ground oracle grounds over where the "
        "entailment is outside the Bernays–Schönfinkel fragment (an "
        "existential under a universal); inside it the pool is exact",
    )
    group.add_argument("--isabelle-host", default="127.0.0.1")
    group.add_argument("--isabelle-port", type=int)
    group.add_argument("--isabelle-password", default="")
    group.add_argument("--isabelle-session", default="HOL")
    group.add_argument(
        "--timeout",
        type=float,
        default=CHECK_TIMEOUT_S,
        help="per-check prover budget (s)",
    )


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("problems")
    group.add_argument("--problems", required=True, help="JSONL problem file")
    group.add_argument("--id", action="append", help="only these problem ids")


def _add_loop_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("refinement loop")
    group.add_argument("--max-iterations", type=int, default=10)
    group.add_argument("--syntax-iterations", type=int, default=3)


def _llm_config(args: argparse.Namespace) -> LLMConfig:
    overrides = {}
    for entry in args.stage_model:
        stage, sep, model = entry.partition("=")
        if not sep or not model or stage not in _STAGE_NAMES:
            raise SystemExit("bad --stage-model %r (want STAGE=MODEL)" % entry)
        overrides[StageKind(stage)] = model
    if args.mode in ("live", "record") and not args.llm_endpoint:
        raise SystemExit("--llm-endpoint is required in %s mode" % args.mode)
    with _usage_errors(args):
        return LLMConfig(
            endpoint=args.llm_endpoint,
            model_name=args.model,
            temperature=args.temperature,
            max_tokens=args.max_tokens,
            per_stage_overrides=overrides,
        )


def _backend(args: argparse.Namespace):
    if args.backend == "oracle":
        # A port names a server, so a run meant for Isabelle would
        # otherwise get the bounded oracle's verdicts.
        if args.isabelle_port is not None:
            args.usage_error(
                "--isabelle-port is unused with --backend oracle; add "
                "--backend isabelle to check on that server"
            )
        with _usage_errors(args):
            return GroundOracle(domain_bound=args.domain_bound)
    if not args.isabelle_port:
        raise SystemExit("--isabelle-port is required with --backend isabelle")
    return IsabelleServer(
        host=args.isabelle_host,
        port=args.isabelle_port,
        password=args.isabelle_password,
        session_name=args.isabelle_session,
    )


def _cache(args: argparse.Namespace) -> Optional[TranscriptCache]:
    if args.mode == "live":
        # Live calls neither read nor write a cache.
        if args.cache:
            raise SystemExit(
                "--cache is unused in live mode; use --mode record to save "
                "transcripts or --mode replay to serve them"
            )
        return None
    if not args.cache:
        raise SystemExit("--cache is required in %s mode" % args.mode)
    try:
        return TranscriptCache(args.cache)
    except (OSError, ValueError) as exc:
        raise SystemExit("cannot load cache %s: %s" % (args.cache, exc))


def _refiner_config(args: argparse.Namespace) -> RefinerConfig:
    llm, backend, cache = _llm_config(args), _backend(args), _cache(args)
    with _usage_errors(args):
        return RefinerConfig(
            llm=llm,
            backend=backend,
            mode=args.mode,
            cache=cache,
            max_refinement_iterations=args.max_iterations,
            syntax_iterations=args.syntax_iterations,
            timeout_s=args.timeout,
        )


def _load(args: argparse.Namespace):
    try:
        problems = load_problems(args.problems)
    except (DatasetError, OSError) as exc:
        raise SystemExit("cannot load %s: %s" % (args.problems, exc))
    if args.id:
        wanted = set(args.id)
        problems = [p for p in problems if p.id in wanted]
        missing = wanted - {p.id for p in problems}
        if missing:
            raise SystemExit("unknown problem ids: %s" % ", ".join(sorted(missing)))
    if not problems:
        raise SystemExit("no problems selected")
    return problems


def _cmd_formalise(args: argparse.Namespace) -> int:
    problems = _load(args)
    cfg = RefinerConfig(
        llm=_llm_config(args),
        backend=None,
        mode=args.mode,
        cache=_cache(args),
    )
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    taken: Set[str] = set()
    for problem in problems:
        try:
            doc = formalise(problem, cfg)
        except (FormulaRejected, MalformedStageOutput) as exc:
            failures += 1
            print("%s: FAILED (%s)" % (problem.id, exc))
            continue
        # Ids that sanitise alike get suffixed file names, and the theory
        # header names its file.
        name = sanitize_name(problem.id, taken)
        taken.add(name)
        doc = replace(doc, name=name)
        path = os.path.join(args.out, "%s.thy" % name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.rendered)
        print("%s: wrote %s" % (problem.id, path))
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with _usage_errors(args):
        timeout_s = checked_timeout(args.timeout)
    try:
        with open(args.theory, "r", encoding="utf-8") as fh:
            doc = parse_theory(fh.read())
    except OSError as exc:
        raise SystemExit("cannot read %s: %s" % (args.theory, exc))
    except TheoryParseError as exc:
        raise SystemExit("cannot parse %s: %s" % (args.theory, exc))
    try:
        handle = start_session(_backend(args))
    except (ProverError, OSError) as exc:
        raise SystemExit("cannot start prover session: %s" % exc)
    try:
        report = check_theory(handle, doc, timeout_s)
    except ProverError as exc:
        raise SystemExit("prover check failed: %s" % exc)
    finally:
        handle.close()
    print("status: %s (%.2fs)" % (report.status, report.elapsed))
    for message in report.messages:
        where = " [line %d]" % message.span.line if message.span else ""
        print("  %s%s: %s" % (message.severity, where, message.text))
    if report.first_error is not None:
        print("first error class: %s" % report.first_error[1].value)
    return 0 if report.status == "valid" else 1


def _print_trace_line(trace) -> None:
    print(
        "%s: %s after %d refinement round(s)"
        % (trace.problem_id, trace.final_status, trace.total_iterations)
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    problems = _load(args)
    cfg = _refiner_config(args)
    # run_batch refuses a worker count below 1 before it starts; a
    # problem's own failure becomes its trace, never an exception here.
    with _usage_errors(args):
        traces = run_batch(
            problems, cfg, args.out, workers=args.workers, on_result=_print_trace_line
        )
    if args.summary:
        print()
        print(render_text(aggregate(traces)), end="")
    return 0


def _iter_trace_files(paths: List[str]):
    for path in paths:
        if os.path.isdir(path):
            yield from sorted(glob.glob(os.path.join(path, "trace_*.json")))
        else:
            yield path


def _cmd_report(args: argparse.Namespace) -> int:
    traces = []
    unreadable = []
    for path in _iter_trace_files(args.traces):
        # One torn or foreign file must not hide the readable traces.
        try:
            with open(path, "r", encoding="utf-8") as fh:
                traces.append(trace_from_dict(json.load(fh)))
        except Exception as exc:
            unreadable.append("%s (%s: %s)" % (path, type(exc).__name__, exc))
    if unreadable:
        print(
            "warning: skipped %d unreadable trace file(s): %s"
            % (len(unreadable), ", ".join(unreadable)),
            file=sys.stderr,
        )
    if not traces:
        raise SystemExit("no trace files found")
    report = aggregate(traces)
    if args.format == "text":
        rendered = render_text(report)
    elif args.format == "csv":
        rendered = render_csv(report)
    else:
        rendered = render_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        print(rendered, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verifine",
        description="Verify and refine natural-language explanations "
        "with a theorem prover.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formalise", help="write theory files for problems")
    _add_problem_flags(p)
    p.add_argument("--out", required=True, help="directory for .thy files")
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_formalise)

    p = sub.add_parser("verify", help="check one theory file")
    p.add_argument("--theory", required=True, help="path to a .thy file")
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("refine", help="run the loop on problems, sequentially")
    _add_problem_flags(p)
    p.add_argument("--out", help="directory for trace files")
    _add_llm_flags(p)
    _add_backend_flags(p)
    _add_loop_flags(p)
    p.set_defaults(func=_cmd_batch, workers=1, summary=False)

    p = sub.add_parser("batch", help="run the loop with a worker pool")
    _add_problem_flags(p)
    p.add_argument("--out", required=True, help="directory for trace files")
    p.add_argument("--workers", type=int, default=1)
    _add_llm_flags(p)
    _add_backend_flags(p)
    _add_loop_flags(p)
    p.set_defaults(func=_cmd_batch, summary=True)

    p = sub.add_parser("report", help="aggregate saved traces")
    p.add_argument("--traces", nargs="+", required=True, help="trace files or dirs")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_report)

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

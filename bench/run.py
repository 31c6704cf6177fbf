"""Benchmark of the verify-and-refine loop.

    python3 bench/run.py --workload replay_batch --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from the seed, then drives a
closed loop of `run_batch` calls for `--seconds` seconds: it sets up
afresh, refines one chunk of problems and writes their traces, then
reads the traces back and reports over them.  It checks every
problem's final status and round count against the generator's plan.
On the CPU-bound replay workloads the timings are scaled to a reference
host speed, gauged next to every chunk (bench/reference.py).

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
runs every chunk twice, untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  `--workload all`
runs every workload in turn.  See bench/README.md.
"""

import argparse
import gc
import glob
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("replay_batch", "event_width", "live_shaped")
CHUNK = {"replay_batch": 100, "event_width": 10, "live_shaped": 20}
# CPU-bound workloads, whose timings are scaled to the reference host
# speed (bench/reference.py).  live_shaped's time is mostly the fakes'
# fixed delays, which do not follow the host's speed, so it is not.
SCALED = ("replay_batch", "event_width")
MODEL = "bench-model"

END_TO_END_UNITS = {
    "problems_per_s": "problems/s",
    "problem_latency_p50_s": "s",
    "problem_latency_p90_s": "s",
    "failed_frac": "ratio",
    "llm_calls_per_problem": "calls",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# failed_frac is 0 on a correct run, so the result line carries it as
# `failed` / `attempted` instead of as a metric.
RESULT_END_TO_END = [k for k in END_TO_END_UNITS if k != "failed_frac"]


def _bootstrap() -> None:
    if not os.path.isfile(os.path.join(SRC, "verifine", "__init__.py")):
        sys.stderr.write("error: no verifine package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)


# ---------------------------------------------------------------------------
# Preparation (runs in a child process, so the timed process's memory and
# caches start clean)


def _llm_config(endpoint: str = "http://bench.invalid/v1/chat/completions"):
    from verifine.llm import LLMConfig

    return LLMConfig(endpoint=endpoint, model_name=MODEL, temperature=0.0,
                     retry_attempts=3, backoff_base_s=0.005, http_timeout_s=30.0)


def write_problems(plan: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in plan["problems"]:
            row = {"id": p["id"], "premise": p["premise"], "hypothesis": p["hypothesis"],
                   "explanation": p["explanation"], "dataset": p["dataset"]}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def canonical_cache(path: str) -> None:
    """Rewrite a recorded cache with fixed timestamps and one line per
    key, so the same seed gives byte-identical files."""
    seen = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record["timestamp"] = "2000-01-01T00:00:00+00:00"
            seen.setdefault(record["key"], record)
    with open(path, "w", encoding="utf-8") as fh:
        for record in seen.values():
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def prepare(workload: str, seed: int, out_dir: str, size: Optional[int]) -> dict:
    """Write plan.json and problems.jsonl; for the replay workloads also
    record the transcript cache and each problem's LLM call count."""
    from verifine.datasets import load_problems
    from verifine.llm import TranscriptCache
    from verifine.pipeline import RefinerConfig, run_refiner
    from verifine.prover import GroundOracle

    from workloads import ScriptedModel, make_plan

    plan = make_plan(workload, seed, size)
    os.makedirs(out_dir, exist_ok=True)
    problems_path = os.path.join(out_dir, "problems.jsonl")
    write_problems(plan, problems_path)
    if workload != "live_shaped":
        cache_path = os.path.join(out_dir, "cache.jsonl")
        model = ScriptedModel(plan)
        made = [0]

        def transport(request):
            made[0] += 1
            return model(request)

        cfg = RefinerConfig(llm=_llm_config(), backend=GroundOracle(3), mode="record",
                            cache=TranscriptCache(cache_path), transport=transport,
                            max_refinement_iterations=plan["budget"])
        by_id = {p["id"]: p for p in plan["problems"]}
        for problem in load_problems(problems_path):
            before = made[0]
            trace = run_refiner(problem, cfg)
            entry = by_id[problem.id]
            problem_faults = fault(trace, entry["expect"])
            if problem_faults:
                raise SystemExit("recording %s: %s" % (problem.id, problem_faults))
            entry["calls"] = made[0] - before
        canonical_cache(cache_path)
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, ensure_ascii=False, sort_keys=True)
    return plan


# ---------------------------------------------------------------------------
# Outcome accounting


def fault(trace, expect) -> Optional[str]:
    """Why a problem counts as failed, or None.  The status label alone
    is not trusted: faults are recorded as exhausted_invalid too."""
    if trace.diagnostic:
        return "diagnostic: %s" % trace.diagnostic
    if not trace.iterations:
        return "no iterations"
    status, rounds = expect
    if (trace.final_status, trace.total_iterations) != (status, rounds):
        return "ended %s after %d rounds, planned %s after %d" % (
            trace.final_status, trace.total_iterations, status, rounds)
    return None


# ---------------------------------------------------------------------------
# The helper process serving the fake endpoints


class FakeServices:
    def __init__(self, plan_path: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "fakes.py"), "--plan", plan_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("fake services did not start")
        self.ports = json.loads(line)

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: Optional[int], run_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.dir = run_dir
        self.errors: List[str] = []
        self.fakes: Optional[FakeServices] = None
        self.round_durations: List[float] = []
        self.live = workload == "live_shaped"
        self.scaled = workload in SCALED
        # Times of the reference routine, one before every chunk's set-up
        # and one after the last chunk.
        self.references: List[float] = []
        self.cache_path = os.path.join(run_dir, "live_cache.jsonl" if self.live else "cache.jsonl")
        # (total, load_problems, cache load) seconds of each set-up
        self.setups: List[Tuple[float, float, float]] = []

    # -- set-up

    def prepare(self) -> None:
        cmd = [sys.executable, os.path.abspath(__file__), "--prepare", self.dir,
               "--workload", self.workload, "--seed", str(self.seed)]
        if self.size:
            cmd += ["--size", str(self.size)]
        subprocess.run(cmd, check=True, timeout=600, cwd=ROOT)
        with open(os.path.join(self.dir, "plan.json"), encoding="utf-8") as fh:
            self.plan = json.load(fh)
        self.expect = {p["id"]: p["expect"] for p in self.plan["problems"]}
        self.calls = {p["id"]: p.get("calls", 0) for p in self.plan["problems"]}

    def setup(self) -> None:
        """Tear down the last set-up, then load the problems and the
        cache, start the fakes for live_shaped, and build the refiner
        configuration.  The run sets up again before every chunk, so the
        set-up times sample the whole run, as the chunk times do."""
        from verifine.datasets import load_problems
        from verifine.llm import TranscriptCache

        self.close()
        self.problems = self.cache = self.cfg = None
        if self.live and os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        # Every set-up starts from the same heap: the last one's objects
        # freed and nothing left for the collector.
        gc.collect()
        t0 = time.perf_counter()
        self.problems = load_problems(os.path.join(self.dir, "problems.jsonl"))
        t1 = time.perf_counter()
        self.cache = TranscriptCache(self.cache_path)
        t2 = time.perf_counter()
        if self.live:
            self.fakes = FakeServices(os.path.join(self.dir, "plan.json"))
        self.cfg = self._refiner_config()
        t3 = time.perf_counter()
        self.setups.append((t3 - t0, t1 - t0, t2 - t1))

    def _refiner_config(self):
        from verifine.pipeline import RefinerConfig
        from verifine.prover import GroundOracle, IsabelleServer

        budget = self.plan["budget"]
        if self.fakes is None:
            return RefinerConfig(llm=_llm_config(), backend=GroundOracle(3),
                                 mode="replay", cache=self.cache,
                                 max_refinement_iterations=budget)
        ports = self.fakes.ports
        endpoint = "http://127.0.0.1:%d/v1/chat/completions" % ports["llm_port"]
        backend = IsabelleServer("127.0.0.1", ports["prover_port"], ports["password"])
        return RefinerConfig(llm=_llm_config(endpoint), backend=backend, mode="record",
                             cache=self.cache, max_refinement_iterations=budget)

    # -- the closed loop

    def _chunk(self, chunk, tracer=None) -> dict:
        """run_batch over one chunk, then report over the written traces."""
        from verifine.batch import run_batch
        from verifine.pipeline import trace_from_dict
        from verifine.report import aggregate, render_text

        out = os.path.join(self.dir, "traces")
        workers = self.plan["workers"]
        before = self.fakes.stats() if self.fakes else None
        start = time.perf_counter()
        run_batch(chunk, self.cfg, out_dir=out, workers=workers)
        batch_end = time.perf_counter()
        span = tracer.begin("report.read") if tracer else None
        traces = []
        paths = sorted(glob.glob(os.path.join(out, "trace_*.json")))
        trace_bytes = 0
        for path in paths:
            trace_bytes += os.path.getsize(path)
            with open(path, encoding="utf-8") as fh:
                traces.append(trace_from_dict(json.load(fh)))
        if tracer:
            tracer.end(span)
            span = tracer.begin("report.aggregate")
        text = render_text(aggregate(traces))
        if tracer:
            tracer.end(span)
        end = time.perf_counter()
        shutil.rmtree(out)
        self._check(chunk, traces, text)
        # Keep sums, not traces: traces held across chunks would make the
        # collector's full passes, and so later chunks, slower.
        records = [r for t in traces for r in t.iterations]
        result = {
            "wall": end - start,
            "batch_wall": batch_end - start,
            "problems": len(chunk),
            "bytes": trace_bytes,
            # Replay: the calls the recording made; record: the replies
            # the endpoint completed.
            "calls": sum(self.calls[t.problem_id] for t in traces),
            "llm_connections": 0,
            "prover_connections": 0,
            "rounds": len(records),
            "checks": sum(2 + r.syntax_iterations_used for r in records
                          if r.theory is not None),
            "steps_suggested": sum(r.proof_steps_suggested for r in records),
            "steps_processed": sum(r.proof_steps_processed for r in records),
        }
        if before is not None:
            after = self.fakes.stats()
            result["calls"] = after["llm"].get("ok", 0) - before["llm"].get("ok", 0)
            for side in ("llm", "prover"):
                result[side + "_connections"] = (after[side].get("connections", 0)
                                                 - before[side].get("connections", 0))
        return result

    def _check(self, chunk, traces, text) -> None:
        by_id = {t.problem_id: t for t in traces}
        for problem in chunk:
            trace = by_id.get(problem.id)
            why = "no trace written" if trace is None else fault(trace, self.expect[problem.id])
            if why:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append("%s: %s" % (problem.id, why))
        if "overall" not in text:
            self.errors.append("report text has no overall row")

    def measure(self) -> None:
        import tracing

        size = CHUNK[self.workload]
        n_chunks = -(-len(self.plan["problems"]) // size)
        self.failed = 0
        self.plain: List[dict] = []
        self.traced: List[dict] = []
        # run_refiner durations, one list per chunk
        self.latencies: List[List[float]] = []
        self.tracer = tracing.Tracer()
        reference.measure()  # warm-up
        deadline = time.perf_counter() + self.seconds
        k = 0
        while not k or time.perf_counter() < deadline:
            self.references.append(reference.measure())
            self.setup()
            first = (k % n_chunks) * size
            chunk = self.problems[first:first + size]
            k += 1
            with tracing.RefinerTimer() as timer:
                done = [self._chunk(chunk)]
            self.latencies.append(timer.durations)
            if self.trace:
                with tracing.Instrumentation(self.tracer):
                    done.append(self._chunk(chunk, self.tracer))
                self.traced.append(done[-1])
            self.plain.append(done[0])
            self.check_live_cache(done)
        self.references.append(reference.measure())

    # -- results

    def scales(self) -> List[float]:
        """Per chunk, the factor that turns its seconds (set-up, chunk and
        run_refiner calls) into reference seconds: REFERENCE_S over the
        mean of the reference times measured just before its set-up and
        just after it.  1 on workloads that are not scaled."""
        if not self.scaled:
            return [1.0] * len(self.plain)
        r = self.references
        return [2.0 * reference.REFERENCE_S / (r[k] + r[k + 1])
                for k in range(len(self.plain))]

    def timings(self, scales: List[float]) -> Dict[str, float]:
        import tracing

        latencies = [d * f for durations, f in zip(self.latencies, scales)
                     for d in durations]
        return {
            # Median over chunks, so a burst of load on the host moves
            # one chunk rather than the whole figure.
            "problems_per_s": statistics.median(
                c["problems"] / (c["wall"] * f) for c, f in zip(self.plain, scales)),
            "problem_latency_p50_s": statistics.median(latencies),
            "problem_latency_p90_s": tracing.percentile(latencies, 90),
            "setup_s": statistics.median(s[0] * f for s, f in zip(self.setups, scales)),
        }

    def end_to_end(self) -> Dict[str, float]:
        problems = sum(c["problems"] for c in self.plain)
        calls = sum(c["calls"] for c in self.plain)
        m = self.timings(self.scales())
        m.update({
            "failed_frac": self.failed / float(self.attempted),
            "llm_calls_per_problem": calls / float(problems),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return {k: m[k] for k in END_TO_END_UNITS}

    def per_layer(self) -> Dict[str, float]:
        import tracing

        problems = sum(c["problems"] for c in self.traced)
        batch_wall = sum(c["batch_wall"] for c in self.traced)
        self.round_durations = tracing.round_durations(self.tracer)
        m = tracing.layer_metrics(self.tracer, problems, self.plan["workers"], batch_wall)
        m["llm.connections_opened"] = sum(c["llm_connections"] for c in self.traced) / problems
        m["llm.cache_load_s"] = statistics.median(s[2] for s in self.setups)
        m["prover.connections_opened"] = (
            sum(c["prover_connections"] for c in self.traced) / problems)
        m["datasets.load_s"] = statistics.median(s[1] for s in self.setups)
        m["batch.trace_bytes"] = sum(c["bytes"] for c in self.traced) / problems
        m["pipeline.proof_steps_suggested"] = (
            sum(c["steps_suggested"] for c in self.traced) / problems)
        m["pipeline.proof_steps_processed"] = (
            sum(c["steps_processed"] for c in self.traced) / problems)
        plain = sum(c["wall"] for c in self.plain)
        m["trace.overhead_frac"] = sum(c["wall"] for c in self.traced) / plain - 1.0
        return m

    def reconcile(self) -> None:
        """Counters from the traced section must agree with the traces it
        wrote.  (Each traced chunk's wrappers were checked restored as it
        ended.)"""
        import tracing

        counts = tracing.totals(self.tracer)
        want = {
            "prover.checks": sum(c["checks"] for c in self.traced),
            "pipeline.rounds": sum(c["rounds"] for c in self.traced),
            "llm.calls": sum(c["calls"] for c in self.traced),
        }
        if self.fakes is None:
            want["llm.cache_hits"] = counts["llm.calls"]
            want["llm.cache_misses"] = 0
        else:
            want["llm.cache_writes"] = counts["llm.calls"]
        for key, value in want.items():
            if counts[key] != value:
                self.errors.append("reconcile: %s is %d, traces say %d"
                                   % (key, counts[key], value))
        self.tracer.write(self.dir + ".spans.jsonl")

    def check_live_cache(self, done: List[dict]) -> None:
        """Record mode appends one line per completed call to the cache
        this set-up started empty."""
        if not self.live:
            return
        with open(self.cache_path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        calls = sum(c["calls"] for c in done)
        if lines != calls:
            self.errors.append("recorded %d cache lines for %d completed calls"
                               % (lines, calls))

    def close(self) -> None:
        if self.fakes is not None:
            self.fakes.close()
            self.fakes = None

    @property
    def attempted(self) -> int:
        runs = self.plain + self.traced
        return sum(c["problems"] for c in runs)


def provenance(run: Run) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workers": run.plan["workers"],
        "corpus_problems": len(run.plan["problems"]),
        "latency_samples": sum(len(d) for d in run.latencies),
        "setup_samples": len(run.setups),
        "round_samples": len(run.round_durations),
        # Host speed relative to the reference (above 1 is faster), and
        # the timings in plain wall-clock seconds, before scaling.
        "host_speed": reference.REFERENCE_S / statistics.median(run.references),
        "scaled": run.scaled,
        "unscaled": run.timings([1.0] * len(run.plain)),
    }


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    _bootstrap()
    # Retry warnings would otherwise go to stderr from the timed loop.
    logging.getLogger("verifine").setLevel(logging.ERROR)
    runs_root = os.path.join(ROOT, ".bench_runs")
    run_dir = os.path.join(runs_root, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    # Keep the HTTP client on loopback and out of the home directory.
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    os.environ["NETRC"] = os.path.join(run_dir, "netrc")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, run_dir)
    try:
        run.prepare()
        run.measure()
        if run.trace:
            run.reconcile()
        e2e = run.end_to_end()
        layers = run.per_layer() if run.trace else {}
    finally:
        run.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(runs_root)
        except OSError:
            pass
    correct = run.failed == 0 and not run.errors
    for error in run.errors:
        print("FAILED %s" % error)
    info = provenance(run)
    print("# %s" % json.dumps(info, sort_keys=True))
    print("%-32s %16s  %s" % ("metric", "value", "unit"))
    for name, value in e2e.items():
        print("%-32s %16.6g  %s" % (name, value, END_TO_END_UNITS[name]))
    if run.trace:
        for name in sorted(layers):
            print("%-32s %16.6g  %s" % (name, layers[name], layer_unit(name)))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]} for k in RESULT_END_TO_END}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name in ("llm.cache_load_s", "datasets.load_s", "pipeline.round_p50_s",
                "pipeline.round_p90_s"):
        return "s"
    if name.endswith("_s"):
        return "s/problem"
    if name == "theory.renders_per_round":
        return "renders/round"
    if name == "batch.trace_bytes":
        return "B/problem"
    if name == "llm.prompt_kchars":
        return "kchar/problem"
    return "n/problem"


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.size:
            cmd += ["--size", str(args.size)]
        print("== %s" % workload, flush=True)
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="corpus size (default: the workload's own)")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prepare:
        _bootstrap()
        prepare(args.workload, args.seed, args.prepare, args.size)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run the refiner over many problems with a thread pool.

Worker threads only compute, each problem's trace coming from
`run_refiner`; the main thread is the single writer of trace files, so
concurrent runs never interleave output.

Each batch runs its problems on its own copy of the config, which
carries what they share.  A backend opens its sessions and says how a
batch shares them (`ProverBackend.shared`), and the batch holds that
shared form until it returns.  In record mode, and in live mode at
temperature 0, the copy also carries a `ReplyTable`: each distinct
prompt is asked once per batch.  Two batches, even on one config and at
once, share none of these.

Such a batch, when its calls go to the endpoint over HTTP, also keeps
a window: as a worker starts problem i, problem i + workers has its
round 0 asked ahead (`ask_round_ahead`) on one of `workers` threads of
the batch's own, so its replies are in the table when its turn comes.
Up to about 2 x workers problems' model calls can then be in flight at
once, which a rate-limited endpoint sees.  The window is joined before
the batch releases its backend and returns.  Replays and scripted
transports ask no problem ahead.
"""

import json
import os
import re
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import replace
from typing import Callable, List, Optional, Sequence

from .pipeline import (
    NLIProblem,
    RefinementTrace,
    RefinerConfig,
    ask_round_ahead,
    calls_wait,
    run_refiner,
    trace_to_dict,
)
# After pipeline: importing the gateway first costs 0.5 MB of peak RSS.
from .llm import ReplyTable

ProgressHook = Callable[[RefinementTrace], None]


def _safe_stem(problem_id: str, taken: set) -> str:
    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", problem_id) or "problem"
    candidate = stem
    suffix = 2
    while candidate in taken:
        candidate = "%s_%d" % (stem, suffix)
        suffix += 1
    taken.add(candidate)
    return candidate


def run_batch(
    problems: Sequence[NLIProblem],
    cfg: RefinerConfig,
    out_dir: Optional[str] = None,
    workers: int = 1,
    on_result: Optional[ProgressHook] = None,
) -> List[RefinementTrace]:
    """Refine every problem; return traces in input order.

    When `out_dir` is given, each trace is written there as
    trace_<id>.json as soon as its problem finishes; ids that sanitise
    alike (or repeat) get numeric suffixes.  A batch that raises (say, in
    `on_result`, or interrupted) cancels the problems it has not started.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    share = getattr(cfg.backend, "shared", None)
    if share is None:
        raise TypeError("unknown backend: %r" % (cfg.backend,))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    # Stems and results go by input index: problem ids need not be unique.
    taken: set = set()
    stems = [_safe_stem(problem.id, taken) for problem in problems]
    results: List[Optional[RefinementTrace]] = [None] * len(problems)

    def finish(index: int, trace: RefinementTrace) -> None:
        results[index] = trace
        if out_dir is not None:
            path = os.path.join(out_dir, "trace_%s.json" % stems[index])
            # Renamed into place, so `report` never reads a half-written trace.
            partial = path + ".partial"
            try:
                with open(partial, "w", encoding="utf-8") as fh:
                    json.dump(trace_to_dict(trace), fh, ensure_ascii=False, indent=2)
                    fh.write("\n")
                os.replace(partial, path)
            finally:
                if os.path.exists(partial):
                    os.remove(partial)
        if on_result is not None:
            on_result(trace)

    # Not on the stage pool: a window task waits on its own stage calls.
    with share() as backend, \
            ThreadPoolExecutor(workers, thread_name_prefix="verifine-ahead") as ahead, \
            ThreadPoolExecutor(max_workers=workers) as pool:
        batch_cfg = replace(cfg, backend=backend)
        if cfg.mode == "record" or (cfg.mode == "live" and cfg.llm.temperature == 0):
            batch_cfg.replies = ReplyTable()
        window = batch_cfg.replies is not None and calls_wait(batch_cfg)

        def refine(index: int) -> RefinementTrace:
            # Starting a problem hands the one `workers` places on to the window.
            if window and index + workers < len(problems):
                ahead.submit(ask_round_ahead, problems[index + workers], batch_cfg)
            return run_refiner(problems[index], batch_cfg)

        pending = {pool.submit(refine, index): index for index in range(len(problems))}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                # Futures that finish together are handled in input order,
                # so one worker reports problems exactly in input order.
                for future in sorted(done, key=pending.__getitem__):
                    finish(pending.pop(future), future.result())
        except BaseException:
            # Start no further problem, nor ask one ahead: the pool shuts
            # first, so no running problem asks ahead into a shut window.
            pool.shutdown(cancel_futures=True)
            ahead.shutdown(cancel_futures=True)
            raise
    return results

"""A fixed reference routine that gauges how fast the host runs Python.

The benchmark's host is a few vCPUs of a shared machine whose speed for
CPU-bound Python swings by a factor of up to three, in phases lasting
from seconds to minutes.  The replay workloads are CPU-bound, so their
wall times follow those phases.  Timing this routine next to every
chunk gives the host's speed at that moment, and the replay timings are
scaled to the speed at which the routine takes `REFERENCE_S`.

The routine uses the standard library only (JSON codec, regex
tokenising, string formatting, dicts and sets, the kinds of work the
replay path does), never the `verifine` package, so a change to the
program cannot move it.
"""

import json
import random
import re
import time

# The usual (median) time of `measure()` on the 2-vCPU Intel Xeon host the
# benchmark was built on (Python 3.11.7).
REFERENCE_S = 0.0057

_WORDS = ["pump", "valve", "sensor", "calibrated", "running", "sealed", "safe",
          "ready", "hub", "rack"]
_rng = random.Random(5)
_ROWS = [
    {"id": "p%d" % i,
     "premise": " ".join(_rng.choice(_WORDS) for _ in range(12)),
     "formula": "∀x y. %s(x) ∧ %s(x, y) → %s(x)"
                % tuple(w.capitalize() for w in _rng.sample(_WORDS, 3))}
    for i in range(200)
]
_PAYLOAD = json.dumps(_ROWS)
_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[()∀∃∧∨→¬.,])")


def _tokens(text: str) -> tuple:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        out.append(m.group(1))
        pos = m.end()
    return tuple(out)


def _pass() -> float:
    start = time.perf_counter()
    rows = json.loads(_PAYLOAD)
    index = {}
    for row in rows:
        toks = _tokens(row["formula"])
        key = "%s|%s" % (row["premise"], " ".join(toks))
        index[key] = index.get(key, 0) + len(toks)
        row["words"] = sorted(set(row["premise"].split()))
        row["render"] = 'lemma %s: "%s"' % (row["id"], " ".join(toks))
    json.dumps(rows, sort_keys=True)
    return time.perf_counter() - start


def measure() -> float:
    """Seconds one pass of the routine takes now: the fastest of three,
    so a collection or a preemption during one pass does not count."""
    return min(_pass() for _ in range(3))

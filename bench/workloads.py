"""Seeded workload generators and the scripted model that answers them.

Each generator turns a seed into a *plan*: the problems, the formula and
event tables the model answers sentence stages from, the refinement
chains, the proofs, and the outcome every problem must reach.  The plan
is plain JSON, so the helper process that serves the fake endpoints can
load the same model the in-process recording uses.

The mix of problem types, quantifier widths and constant counts is a
fixed recipe per block of problems; the seed varies vocabulary, names
and order.  That keeps the work per run nearly the same across seeds.
"""

import random
import re
from typing import Dict, List, Optional, Sequence, Tuple

from verifine.llmtypes import StageKind
from verifine.logic import parse_formula, sanitize_name
from verifine.prompts import TEMPLATES
from verifine.theory import isabelle_formula

ROLE_PREMISE = "premise"
ROLE_FACT = "explanation fact"
ROLE_HYPOTHESIS = "hypothesis"

_DATASETS = ("esnli", "qasc", "worldtree")


def fenced(text: str) -> str:
    return "```\n%s\n```" % text


def _pred(word: str) -> str:
    return "".join(part.capitalize() for part in re.split(r"[^A-Za-z]+", word) if part)


def _inner(canonical: str) -> str:
    """Prover inner syntax of a formula written in canonical syntax."""
    return isabelle_formula(parse_formula(canonical))


class PlanTables:
    """Accumulates tables while problems are generated."""

    def __init__(self, workload: str, seed: int, budget: int, workers: int):
        self.plan = {
            "workload": workload,
            "seed": seed,
            "budget": budget,
            "workers": workers,
            "problems": [],
            "formulas": [],
            "events": [],
            "refine": [],
            "proofs": [],
            "inject_syntax": [],
        }
        self._formulas: Dict[Tuple[str, str], str] = {}
        self._events: Dict[str, Tuple[str, ...]] = {}
        self._refine: Dict[Tuple[str, str, Tuple[str, ...]], Tuple[str, ...]] = {}

    def sentence(self, role: str, text: str, formula: str, events=()) -> str:
        key = (role, text)
        known = self._formulas.get(key)
        if known is not None and known != formula:
            raise ValueError("sentence %r maps to two formulas" % text)
        if known is None:
            self._formulas[key] = formula
            self.plan["formulas"].append([role, text, formula])
        if events:
            if self._events.setdefault(text, tuple(events)) != tuple(events):
                raise ValueError("sentence %r has two event lists" % text)
        return text

    def problem(
        self,
        pid: str,
        premise: str,
        hypothesis: str,
        rounds: Sequence[Tuple[Sequence[str], Optional[Sequence[str]]]],
        status: str,
        dataset: str,
        recipe: Sequence = (),
    ) -> None:
        """Add one problem.  `rounds` lists (explanation, proof lines or
        None) per planned round; the last round is valid unless the
        status is exhausted_invalid."""
        for (before, _), (after, _) in zip(rounds, rounds[1:]):
            key = (premise, hypothesis, tuple(before))
            if self._refine.setdefault(key, tuple(after)) != tuple(after):
                raise ValueError("refinement of %r is ambiguous" % (before,))
        name = sanitize_name(pid)
        for explanation, proof in rounds:
            if proof:
                self.plan["proofs"].append([name, list(explanation), list(proof)])
        total = len(rounds) - 1
        self.plan["problems"].append({
            "id": pid,
            "premise": premise,
            "hypothesis": hypothesis,
            "explanation": list(rounds[0][0]),
            "dataset": dataset,
            "expect": [status, total],
            "recipe": list(recipe),
        })

    def finish(self) -> dict:
        self.plan["events"] = [[s, list(v)] for s, v in self._events.items()]
        self.plan["refine"] = [
            [p, h, list(before), list(after)]
            for (p, h, before), after in self._refine.items()
        ]
        return self.plan


# ---------------------------------------------------------------------------
# replay_batch / live_shaped: shared short sentences over a few topics

_KINDS = ["machine", "pump", "valve", "sensor", "turbine", "robot", "engine",
          "drone", "boiler", "router", "crane", "press"]
_PROPS = ["calibrated", "running", "sealed", "tested", "powered", "cooled",
          "inspected", "cleaned", "charged", "balanced", "lubricated", "aligned",
          "fuelled", "shielded", "painted", "labelled"]
_GOALS = ["operational", "safe", "ready", "certified", "reliable", "efficient",
          "compliant", "available"]
_MIDS = ["tuned", "stable", "verified", "trusted", "approved", "serviced"]
_HUBS = ["hub", "rack", "dock", "grid", "bay"]
_WEAK = ["maintained", "registered", "insured", "documented", "listed",
         "archived", "scheduled", "logged", "tagged", "monitored"]

# One block of the replay_batch recipe: (type, count).  Types:
#   good1      valid first time, one-fact explanation, no proof
#   good1p     valid first time, one fact, two-step proof
#   good2p     valid first time, two facts, three-step proof
#   weak       one refinement round: weak fact -> good1
#   weakp      one round: weak fact with a failing proof -> good2 + proof
#   weak2      two rounds: weak2 -> weak -> good1
#   bad        exhausted under a budget of 2: bad1 -> bad2 -> bad3
# Seven one-round, nine two-round and four three-round problems: the
# median and the 90th percentile each fall inside one class rather than
# on the boundary between two.
_BATCH_RECIPE = [("good1", 4), ("good1p", 1), ("good2p", 2), ("weak", 6),
                 ("weakp", 3), ("weak2", 2), ("bad", 2)]
BATCH_BLOCK = sum(n for _, n in _BATCH_RECIPE)
BATCH_BUDGET = 2


def _batch_topic(rng: random.Random, index: int, relational: bool) -> dict:
    kind = _KINDS[index % len(_KINDS)]
    p1, p2 = rng.sample(_PROPS, 2)
    words = rng.sample(_WEAK, 6)
    return {
        "kind": kind,
        "p1": p1,
        "p2": p2,
        "goal": rng.choice(_GOALS),
        "mid": rng.choice(_MIDS),
        "hub": rng.choice(_HUBS) if relational else None,
        "w1": words[0],
        "w2": words[1],
        "w3": words[2],
        "bad": words[3:6],
        "index": index,
    }


def _batch_sentences(b: PlanTables, t: dict) -> dict:
    """Every sentence of one topic, registered with its formula."""
    k, P1, G, M = t["kind"], _pred(t["p1"]), _pred(t["goal"]), _pred(t["mid"])
    F = ROLE_FACT
    s = {}
    s["hyp"] = b.sentence(ROLE_HYPOTHESIS, "Some %s is %s." % (k, t["goal"]),
                          "∃x. %s(x)" % G)
    if t["hub"]:
        link = "attached to a %s" % t["hub"]
        cond2, vars_ = "AttachedTo(x, y)", "x y"
    else:
        link = "that is %s" % t["p2"]
        cond2, vars_ = "%s(x)" % _pred(t["p2"]), "x"
    s["good1"] = b.sentence(F, "A %s %s %s is %s." % (t["p1"], k, link, t["goal"]),
                            "∀%s. %s(x) ∧ %s → %s(x)" % (vars_, P1, cond2, G))
    s["good2a"] = b.sentence(F, "Every %s %s is %s." % (t["p1"], k, t["mid"]),
                             "∀x. %s(x) → %s(x)" % (P1, M))
    s["good2b"] = b.sentence(F, "A %s %s %s is %s." % (t["mid"], k, link, t["goal"]),
                             "∀%s. %s(x) ∧ %s → %s(x)" % (vars_, M, cond2, G))
    s["weak"] = b.sentence(F, "A %s %s is %s." % (t["p1"], k, t["w1"]),
                           "∀x. %s(x) → %s(x)" % (P1, _pred(t["w1"])))
    s["weakp"] = b.sentence(F, "A %s %s is %s." % (k, link, t["w2"]),
                            "∀%s. %s → %s(x)" % (vars_, cond2, _pred(t["w2"])))
    s["weak2"] = b.sentence(F, "A %s that is %s is %s." % (k, t["w1"], t["w3"]),
                            "∀x. %s(x) → %s(x)" % (_pred(t["w1"]), _pred(t["w3"])))
    s["bad"] = [
        b.sentence(F, "A %s %s is %s." % (k, link, word),
                   "∀%s. %s → %s(x)" % (vars_, cond2, _pred(word)))
        for word in t["bad"]
    ]
    return s


def _batch_premise(b: PlanTables, t: dict, family: int) -> Tuple[str, str]:
    """(premise sentence, premise atoms in canonical syntax)."""
    const = "%s%d%d" % (t["kind"][0], t["index"], family)
    if t["hub"]:
        hub = "h%d%d" % (t["index"], family)
        text = "%s %s is %s and attached to %s %s." % (
            t["kind"].capitalize(), const, t["p1"], t["hub"], hub)
        atoms = "%s(%s) ∧ AttachedTo(%s, %s)" % (_pred(t["p1"]), const, const, hub)
    else:
        text = "%s %s is %s and %s." % (t["kind"].capitalize(), const, t["p1"], t["p2"])
        atoms = "%s(%s) ∧ %s(%s)" % (_pred(t["p1"]), const, _pred(t["p2"]), const)
    b.sentence(ROLE_PREMISE, text, atoms)
    return text, atoms


def _batch_proofs(t: dict, atoms: str) -> dict:
    asm = 'from asm have "%s" by blast' % _inner(atoms)
    mid = atoms.replace(_pred(t["p1"]) + "(", _pred(t["mid"]) + "(", 1)
    return {
        "good1p": [asm, "then show ?thesis using explanation_1 by blast"],
        "good2p": [
            asm,
            'then have "%s" using explanation_1 by blast' % _inner(mid),
            "then show ?thesis using explanation_2 by blast",
        ],
        "weakp": [asm, "then show ?thesis using explanation_1 by blast"],
    }


def batch_plan(
    seed: int,
    count: int,
    workload: str = "replay_batch",
    workers: int = 1,
    inject_frac: float = 0.0,
) -> dict:
    """Short, heavily shared sentences in the shape of the shipped batch
    corpus; `count` is rounded up to whole recipe blocks.  Each block is
    shuffled in place, not the whole corpus, so every run of
    BATCH_BLOCK problems (and so every chunk of the benchmark) holds
    the same mix, and the same share of injected syntax errors."""
    rng = random.Random("batch:%d" % seed)
    b = PlanTables(workload, seed, BATCH_BUDGET, workers)
    topics = [_batch_topic(rng, i, relational=(i % 2 == 1)) for i in range(8)]
    sentences = [_batch_sentences(b, t) for t in topics]
    kinds = [name for name, n in _BATCH_RECIPE for _ in range(n)]
    blocks = -(-count // BATCH_BLOCK)
    index = 0
    injected: List[dict] = []
    for _ in range(blocks):
        rng.shuffle(kinds)
        first = len(b.plan["problems"])
        for kind in kinds:
            ti = rng.randrange(len(topics))
            t, s = topics[ti], sentences[ti]
            premise, atoms = _batch_premise(b, t, rng.randrange(3))
            proofs = _batch_proofs(t, atoms)
            good1, good2 = [s["good1"]], [s["good2a"], s["good2b"]]
            rounds: List[Tuple[List[str], Optional[List[str]]]]
            status = "refined_valid"
            if kind == "good1":
                rounds, status = [(good1, None)], "valid_initially"
            elif kind == "good1p":
                rounds, status = [(good1, proofs["good1p"])], "valid_initially"
            elif kind == "good2p":
                rounds, status = [(good2, proofs["good2p"])], "valid_initially"
            elif kind == "weak":
                rounds = [([s["weak"]], None), (good1, None)]
            elif kind == "weakp":
                rounds = [([s["weakp"]], proofs["weakp"]), (good2, proofs["good2p"])]
            elif kind == "weak2":
                rounds = [([s["weak2"]], None), ([s["weak"]], None), (good1, None)]
            else:
                rounds = [([bad], None) for bad in s["bad"]]
                status = "exhausted_invalid"
            b.problem("%s_%04d" % (workload[:2], index), premise, s["hyp"],
                      rounds, status, _DATASETS[index % 3], (kind,))
            index += 1
        block = b.plan["problems"][first:]
        injected += rng.sample(block, int(round(inject_frac * len(block))))
    b.plan["inject_syntax"] = sorted(sanitize_name(p["id"]) for p in injected)
    return b.finish()


# ---------------------------------------------------------------------------
# event_width: unique event-semantics problems with wide quantifier blocks

_PERSONS = ["woman", "man", "girl", "boy", "teacher", "farmer", "nurse", "pilot",
            "chef", "doctor", "singer", "artist", "sailor", "student"]
_OBJECTS = ["album", "violin", "book", "ball", "kite", "letter", "basket", "lamp",
            "guitar", "map", "parcel", "camera", "bicycle", "ladder", "drum", "vase"]
_VERBS = ["peruse", "play", "carry", "paint", "read", "hold", "fix", "throw",
          "clean", "inspect", "lift", "open", "polish", "wrap"]
_RELS = [("With", "is with"), ("Handles", "handles"), ("Uses", "uses"),
         ("Touches", "touches"), ("Owns", "owns"), ("Guards", "guards")]
_OUTS = ["lady", "musician", "reader", "worker", "helper", "expert", "performer",
         "collector"]
_PLACES = ["table", "stage", "window", "garden", "shelf", "porch"]

# One block of the event_width recipe: (type, bridge width, named constants).
#   ok       valid first time, no proof
#   okp      valid first time, four-step proof
#   link     one round: bridge alone -> bridge + conclusion fact, with proof
#   wrong    one round: wrong object kind + failing proof -> good, no proof
#   wrong2   two rounds: wrong alone -> wrong + conclusion (failing proof)
#            -> good with proof
#   stuck    exhausted under a budget of 2: three wrong object kinds
# The two width-4 problems over seven-element domains are the slowest
# class, and alike, so the tail percentile falls inside one class.
_EVENT_RECIPE = [
    ("link", 4, 4), ("wrong", 4, 4),
    ("ok", 3, 5), ("ok", 2, 4), ("okp", 3, 7),
    ("link", 3, 3), ("wrong", 3, 5),
    ("wrong2", 3, 4), ("wrong2", 3, 6),
    ("stuck", 3, 6),
]
EVENT_BLOCK = len(_EVENT_RECIPE)
EVENT_BUDGET = 2


def _third(verb: str) -> str:
    return verb + ("es" if verb.endswith(("sh", "ch", "x", "o")) else "s")


def _event_problem(b: PlanTables, rng: random.Random, index: int,
                   kind: str, width: int, consts: int) -> None:
    k1, k3 = rng.sample(_PERSONS, 2)
    k2, k4, *wrongs = rng.sample(_OBJECTS, 5)
    verb, verb2 = rng.sample(_VERBS, 2)
    rel, rel_text = rng.choice(_RELS)
    out = rng.choice(_OUTS)
    place = rng.choice(_PLACES)
    n = index
    p, o, e = "p%d" % n, "o%d" % n, "e%d" % n
    # Named constants: p, o, e always; a second actor adds q and d; a
    # place adds l; a second object adds r.
    extras = {3: (), 4: ("l",), 5: ("q",), 6: ("q", "l"), 7: ("q", "l", "r")}[consts]
    if width == 4 and "l" not in extras:
        raise ValueError("a width-4 block needs the place constant")
    K1, K2, V = _pred(k1), _pred(k2), _pred(verb)

    atoms = ["%s(%s)" % (K1, p), "%s(%s)" % (K2, o), "%s(%s)" % (V, e),
             "Agent(%s, %s)" % (e, p), "Patient(%s, %s)" % (e, o)]
    text = "In scene %d the %s %s %s the %s %s" % (n, k1, p, _third(verb), k2, o)
    events = [_third(verb)]
    if "q" in extras:
        q, d = "q%d" % n, "d%d" % n
        atoms += ["%s(%s)" % (_pred(k3), q), "%s(%s)" % (_pred(verb2), d),
                  "Agent(%s, %s)" % (d, q), "Patient(%s, %s)" % (d, o)]
        text += ", the %s %s %s it" % (k3, q, _third(verb2))
        events.append(_third(verb2))
    if "l" in extras:
        l = "l%d" % n
        atoms += ["%s(%s)" % (_pred(place), l), "Near(%s, %s)" % (o, l)]
        text += ", it lies near the %s %s" % (place, l)
    if "r" in extras:
        atoms.append("%s(%s)" % (_pred(k4), "r%d" % n))
        text += ", beside the %s r%d" % (k4, n)
    premise = b.sentence(ROLE_PREMISE, text + ".", " ∧ ".join(atoms), events)

    def bridge(obj: str) -> str:
        O = _pred(obj)
        if width == 2:
            return b.sentence(
                ROLE_FACT, "Every %s %s every %s." % (k1, rel_text, obj),
                "∀x y. %s(x) ∧ %s(y) → %s(x, y)" % (K1, O, rel))
        if width == 3:
            return b.sentence(
                ROLE_FACT,
                "Whenever a %s %s a %s, the %s %s the %s."
                % (k1, _third(verb), obj, k1, rel_text, obj),
                "∀x y e. %s(x) ∧ %s(y) ∧ %s(e) ∧ Agent(e, x) ∧ Patient(e, y) → %s(x, y)"
                % (K1, O, V, rel),
                [_third(verb)])
        return b.sentence(
            ROLE_FACT,
            "Whenever a %s %s a %s that lies near a %s, the %s %s the %s."
            % (k1, _third(verb), obj, place, k1, rel_text, obj),
            "∀x y z e. %s(x) ∧ %s(y) ∧ %s(z) ∧ %s(e) ∧ Agent(e, x) ∧ Patient(e, y)"
            " ∧ Near(y, z) → %s(x, y)" % (K1, O, _pred(place), V, rel),
            [_third(verb)])

    conclusion = b.sentence(
        ROLE_FACT, "A %s who %s something is a %s." % (k1, rel_text, out),
        "∀x y. %s(x, y) ∧ %s(x) → %s(x)" % (rel, K1, _pred(out)))
    hypothesis = b.sentence(
        ROLE_HYPOTHESIS, "Some %s %s something." % (out, rel_text),
        "∃x y. %s(x) ∧ %s(x, y)" % (_pred(out), rel))

    used = ["%s(%s)" % (K1, p), "%s(%s)" % (K2, o)]
    if width >= 3:
        used += ["%s(%s)" % (V, e), "Agent(%s, %s)" % (e, p), "Patient(%s, %s)" % (e, o)]
    if width == 4:
        used += ["%s(l%d)" % (_pred(place), n), "Near(%s, l%d)" % (o, n)]
    linked = "%s(%s) ∧ %s(%s, %s)" % (K1, p, rel, p, o)
    proof3 = [
        'from asm have "%s" by blast' % _inner(" ∧ ".join(used)),
        'then have "%s" using explanation_1 by blast' % _inner(linked),
        "then show ?thesis using explanation_2 by blast",
    ]
    proof4 = proof3[:2] + [
        'then have "%s" using explanation_2 by blast'
        % _inner("%s ∧ %s(%s)" % (linked, _pred(out), p)),
        "then show ?thesis by blast",
    ]
    good = [bridge(k2), conclusion]
    bad = [[bridge(w), conclusion] for w in wrongs]
    status = "refined_valid"
    if kind == "ok":
        rounds, status = [(good, None)], "valid_initially"
    elif kind == "okp":
        rounds, status = [(good, proof4)], "valid_initially"
    elif kind == "link":
        rounds = [([bridge(k2)], None), (good, proof3)]
    elif kind == "wrong":
        rounds = [(bad[0], proof3), (good, None)]
    elif kind == "wrong2":
        rounds = [([bridge(wrongs[0])], None), (bad[0], proof3), (good, proof4)]
    else:
        rounds = [(bad[0], None), (bad[1], proof3), (bad[2], None)]
        status = "exhausted_invalid"
    b.problem("ew_%04d" % index, premise, hypothesis, rounds, status,
              _DATASETS[index % 3], (kind, width, consts))


def event_plan(seed: int, count: int, workers: int = 2) -> dict:
    """Unique event-semantics problems; `count` is rounded up to whole
    recipe blocks."""
    rng = random.Random("event:%d" % seed)
    b = PlanTables("event_width", seed, EVENT_BUDGET, workers)
    recipe = list(_EVENT_RECIPE)
    index = 0
    for _ in range(-(-count // EVENT_BLOCK)):
        rng.shuffle(recipe)
        for kind, width, consts in recipe:
            _event_problem(b, rng, index, kind, width, consts)
            index += 1
    return b.finish()


# ---------------------------------------------------------------------------
# The scripted model

_NUMBERED_RE = re.compile(r"^(\d+)\. (.*)$", re.M)
_ROLE_RE = re.compile(r"^Sentence role: (.*)$", re.M)
_SENTENCE_RE = re.compile(r"^Sentence: (.*)$", re.M)
_FACT_RE = re.compile(r"^(f\d+): (.*)$", re.M)
_THEORY_RE = re.compile(r"^theory (\S+)", re.M)
_AXIOM_COMMENT_RE = re.compile(r"^  \(\* Explanation \d+: (.*) \*\)$", re.M)
_REFINE_RE = re.compile(
    r"^Premise: ([^\n]*)\nHypothesis: ([^\n]*)\nCurrent explanation:\n(.*?)\n\nProver error:",
    re.M | re.S,
)
_SYNTAX_THEORY_RE = re.compile(
    r"\nTheory:\n(.*)\n\nAnswer with the complete corrected theory text", re.S
)


_PREFIXES = [(template.split("{")[0], stage.value) for stage, template in TEMPLATES.items()]


def stage_of_prompt(prompt: str) -> str:
    """The stage whose template opens the prompt."""
    for prefix, stage in _PREFIXES:
        if prompt.startswith(prefix):
            return stage
    raise KeyError("prompt matches no stage template: %r" % prompt[:80])


def theory_sentences(text: str) -> Tuple[str, ...]:
    """Explanation sentences of a rendered theory, in axiom order."""
    return tuple(_AXIOM_COMMENT_RE.findall(text))


class ScriptedModel:
    """Deterministic stand-in for the model: answers every stage prompt
    of a plan from the plan's tables.  Unknown prompts raise KeyError,
    so a pipeline change that alters a prompt fails loudly."""

    def __init__(self, plan: dict):
        self.formulas = {(r, s): f for r, s, f in plan["formulas"]}
        self.events = {s: v for s, v in plan["events"]}
        self.refine = {(p, h, tuple(b)): a for p, h, b, a in plan["refine"]}
        self.proofs = {(n, tuple(s)): lines for n, s, lines in plan["proofs"]}

    def __call__(self, request: dict) -> str:
        return self.answer(request["stage"], request["prompt"])

    def answer_prompt(self, prompt: str) -> str:
        """Answer a bare prompt, as an HTTP endpoint sees it."""
        return self.answer(stage_of_prompt(prompt), prompt)

    def answer(self, stage: str, prompt: str) -> str:
        if stage == StageKind.DETECT_EVENTS.value:
            rows = _NUMBERED_RE.findall(prompt)
            return fenced("\n".join(
                "%s: %s" % (num, ", ".join(self.events.get(text, ())))
                for num, text in rows))
        if stage == StageKind.SENTENCE_TO_LOGIC.value:
            role = _ROLE_RE.search(prompt).group(1)
            sentence = _SENTENCE_RE.search(prompt).group(1)
            return fenced(self.formulas[(role, sentence)])
        if stage == StageKind.ROUGH_INFERENCE.value:
            ids = [fid for fid, _ in _FACT_RE.findall(prompt)]
            return fenced("Chain the facts from the premise to the goal.\n"
                          "Relevant: %s\nRedundant:" % ", ".join(ids))
        if stage == StageKind.CONSTRUCT_PROOF.value:
            name = _THEORY_RE.search(prompt).group(1)
            lines = self.proofs.get((name, theory_sentences(prompt)))
            if lines is None:
                return "No usable proof found."
            return fenced("\n".join(lines))
        if stage == StageKind.REFINE_EXPLANATION.value:
            match = _REFINE_RE.search(prompt)
            current = tuple(text for _, text in _FACT_RE.findall(match.group(3)))
            after = self.refine[(match.group(1), match.group(2), current)]
            return fenced("\n".join("- " + s for s in after))
        if stage == StageKind.REFINE_SYNTAX.value:
            # The injected errors are spurious, so the repair is the
            # theory unchanged.
            return fenced(_SYNTAX_THEORY_RE.search(prompt).group(1).strip())
        raise KeyError("no scripted answer for stage %s" % stage)


# ---------------------------------------------------------------------------

SIZES = {"replay_batch": 1000, "event_width": 100, "live_shaped": 100}


def make_plan(workload: str, seed: int, size: Optional[int] = None) -> dict:
    count = size or SIZES[workload]
    if workload == "replay_batch":
        return batch_plan(seed, count)
    if workload == "event_width":
        return event_plan(seed, count)
    if workload == "live_shaped":
        return batch_plan(seed, count, "live_shaped", workers=2, inject_frac=0.2)
    raise ValueError("unknown workload %r" % workload)

"""Shared end-to-end fixtures: two worked NLI problems with fully
scripted stage responses, a 50-problem synthetic batch corpus, and a
paths corpus that takes each malformed-reply, syntax-repair and
proof-failure path of the loop at least once.

The scripted transports stand in for the model endpoint.  Recording a
run against them produces the transcript caches under tests/data/replay
that the replay tests (and the acceptance suite) consume.
"""

import contextlib
import json
import re

from verifine import pipeline
from verifine.llm import LLMConfig
from verifine.llmtypes import StageKind
from verifine.pipeline import Fact, NLIProblem, trace_to_dict
from verifine.prover.messages import ProverMessage, Span, build_report
from verifine.prover.oracle import OracleSession
from verifine.theory import line_span

from helpers import ScriptedTransport, fenced


def gateway_config():
    """The LLM configuration every scripted/replay run shares.

    Cache keys hash the stage, model, temperature and prompt, so replay
    only works with the same model name and temperature used to record.
    """
    return LLMConfig(
        endpoint="http://scripted.invalid/v1/chat/completions",
        model_name="scripted-model",
        temperature=0.0,
    )


# ---------------------------------------------------------------------------
# The two worked examples

LADY_PREMISE = (
    "A woman in black framed glasses peruses a photo album while sitting "
    "in a red wicker chair."
)
LADY_HYPOTHESIS = "There is a lady with a book."
LADY_IT0 = "The lady is looking through a photo album which is a type of book."
LADY_IT1_A = "A woman can be referred to as a lady."
LADY_IT1_B = "A photo album is a type of book."
LADY_IT2_C = (
    "If a woman is perusing a photo album, then the woman is with a book."
)

BARTENDER_PREMISE = (
    "A male bartender dressed in all black with his sleeves rolled up to "
    "elbow height making a drink in a martini glass."
)
BARTENDER_HYPOTHESIS = "A person in black"
BARTENDER_IT0 = "A bartender, who is a person, is wearing black."
BARTENDER_IT1_A = "A bartender is a person."
BARTENDER_IT1_B = "If a person is wearing black, then the person is in black."
BARTENDER_IT2_B = "If a person is dressed in black, then the person is in black."

LADY_EXPLANATIONS = [
    [LADY_IT0],
    [LADY_IT1_A, LADY_IT1_B],
    [LADY_IT1_A, LADY_IT1_B, LADY_IT2_C],
]

BARTENDER_EXPLANATIONS = [
    [BARTENDER_IT0],
    [BARTENDER_IT1_A, BARTENDER_IT1_B],
    [BARTENDER_IT1_A, BARTENDER_IT2_B],
]


def worked_example_problems():
    lady = NLIProblem(
        id="esnli_lady_book",
        premise_text=LADY_PREMISE,
        hypothesis_text=LADY_HYPOTHESIS,
        explanation=(Fact("f1", LADY_IT0),),
        dataset="esnli",
    )
    bartender = NLIProblem(
        id="esnli_bartender",
        premise_text=BARTENDER_PREMISE,
        hypothesis_text=BARTENDER_HYPOTHESIS,
        explanation=(Fact("f1", BARTENDER_IT0),),
        dataset="esnli",
    )
    return [lady, bartender]


def _steps(*lines):
    return fenced("\n".join(lines))


def worked_example_transport():
    """Scripted responses for both worked problems, all iterations."""
    t = ScriptedTransport()

    # -- lady/book: sentence analysis
    t.add(
        StageKind.DETECT_EVENTS,
        fenced("1: peruses, sitting\n2: looking\n3:"),
        "1. " + LADY_PREMISE,
    )
    t.add(StageKind.DETECT_EVENTS, fenced("1:\n2:"), "1. " + LADY_IT1_A)
    t.add(StageKind.DETECT_EVENTS, fenced("1: perusing"), "1. " + LADY_IT2_C)
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced(
            "Woman(mary) ∧ PhotoAlbum(album1) ∧ Perusing(e1) ∧ "
            "Agent(e1, mary) ∧ Patient(e1, album1)"
        ),
        "Sentence role: premise",
        LADY_PREMISE,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced(
            "∀x y e. (Lady(x) ∧ PhotoAlbum(y) ∧ LookingThrough(e) ∧ "
            "Agent(e, x) ∧ Patient(e, y)) → Book(y)"
        ),
        "Sentence role: explanation fact",
        LADY_IT0,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∀x. Woman(x) → Lady(x)"),
        "Sentence role: explanation fact",
        LADY_IT1_A,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∀x. PhotoAlbum(x) → Book(x)"),
        "Sentence role: explanation fact",
        LADY_IT1_B,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced(
            "∀x y e. (Woman(x) ∧ PhotoAlbum(y) ∧ Perusing(e) ∧ "
            "Agent(e, x) ∧ Patient(e, y)) → With(x, y)"
        ),
        "Sentence role: explanation fact",
        LADY_IT2_C,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∃x y. Lady(x) ∧ Book(y) ∧ With(x, y)"),
        "Sentence role: hypothesis",
        LADY_HYPOTHESIS,
    )

    # -- lady/book: argument sketches (iteration 2 first, most specific)
    t.add(
        StageKind.ROUGH_INFERENCE,
        fenced(
            "The premise woman is a lady and her photo album is a book; "
            "the perusing event puts her with it.\n"
            "Relevant: f2, f3, f4\n"
            "Redundant:"
        ),
        LADY_IT2_C,
    )
    t.add(
        StageKind.ROUGH_INFERENCE,
        fenced(
            "The woman counts as a lady and the photo album as a book, but "
            "nothing yet places the lady with the book.\n"
            "Relevant: f2, f3\n"
            "Redundant:"
        ),
        LADY_IT1_A,
    )
    t.add(
        StageKind.ROUGH_INFERENCE,
        fenced(
            "The fact presupposes a lady already looking through a book, "
            "which the premise never states.\n"
            "Relevant: f1\n"
            "Redundant:"
        ),
        LADY_IT0,
    )

    # -- lady/book: proof attempts (iteration 2 first)
    t.add(
        StageKind.CONSTRUCT_PROOF,
        _steps(
            'from asm have "Lady mary \\<and> Book album1" '
            "using explanation_1 explanation_2 by blast",
            'then have "Lady mary \\<and> Book album1 \\<and> '
            'With mary album1" using asm explanation_3 by blast',
            "then show ?thesis by blast",
        ),
        LADY_IT2_C,
    )
    t.add(
        StageKind.CONSTRUCT_PROOF,
        _steps(
            'from asm have "Woman mary \\<and> PhotoAlbum album1" by blast',
            'then have "Lady mary \\<and> Book album1" '
            "using explanation_1 explanation_2 by blast",
            "then show ?thesis using asm by blast",
        ),
        LADY_IT1_A,
    )
    t.add(
        StageKind.CONSTRUCT_PROOF,
        _steps(
            'from asm have "Woman mary \\<and> PhotoAlbum album1" by blast',
            'then have "Lady mary \\<and> Book album1" '
            "using explanation_1 by blast",
            "then show ?thesis using asm by blast",
        ),
        LADY_IT0,
    )

    # -- lady/book: refinements
    t.add(
        StageKind.REFINE_EXPLANATION,
        fenced("- %s\n- %s" % (LADY_IT1_A, LADY_IT1_B)),
        LADY_IT0,
    )
    t.add(
        StageKind.REFINE_EXPLANATION,
        fenced("- %s\n- %s\n- %s" % (LADY_IT1_A, LADY_IT1_B, LADY_IT2_C)),
        LADY_IT1_A,
    )

    # -- bartender: sentence analysis
    t.add(
        StageKind.DETECT_EVENTS,
        fenced("1: making\n2:\n3:"),
        "1. " + BARTENDER_PREMISE,
    )
    t.add(StageKind.DETECT_EVENTS, fenced("1:\n2:"), "1. " + BARTENDER_IT1_A)
    t.add(StageKind.DETECT_EVENTS, fenced("1:"), "1. " + BARTENDER_IT2_B)
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced(
            "Bartender(tom) ∧ Male(tom) ∧ DressedInBlack(tom) ∧ "
            "Making(e1) ∧ Agent(e1, tom) ∧ Patient(e1, drink1)"
        ),
        "Sentence role: premise",
        BARTENDER_PREMISE,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∀x. Bartender(x) → Person(x) ∧ WearingBlack(x)"),
        "Sentence role: explanation fact",
        BARTENDER_IT0,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∀x. Bartender(x) → Person(x)"),
        "Sentence role: explanation fact",
        BARTENDER_IT1_A,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∀x. Person(x) ∧ WearingBlack(x) → InBlack(x)"),
        "Sentence role: explanation fact",
        BARTENDER_IT1_B,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∀x. Person(x) ∧ DressedInBlack(x) → InBlack(x)"),
        "Sentence role: explanation fact",
        BARTENDER_IT2_B,
    )
    t.add(
        StageKind.SENTENCE_TO_LOGIC,
        fenced("∃x. Person(x) ∧ InBlack(x)"),
        "Sentence role: hypothesis",
        BARTENDER_HYPOTHESIS,
    )

    # -- bartender: argument sketches (iteration 2 first)
    t.add(
        StageKind.ROUGH_INFERENCE,
        fenced(
            "The bartender is a person, and being dressed in black puts "
            "him in black.\n"
            "Relevant: f2, f4\n"
            "Redundant:"
        ),
        BARTENDER_IT2_B,
    )
    t.add(
        StageKind.ROUGH_INFERENCE,
        fenced(
            "The bartender is a person; the premise says dressed in black, "
            "and the bridge speaks of wearing black.\n"
            "Relevant: f2, f3\n"
            "Redundant:"
        ),
        BARTENDER_IT1_A,
    )
    t.add(
        StageKind.ROUGH_INFERENCE,
        fenced(
            "The single fact bundles personhood with wearing black, which "
            "the premise states as dressed in black.\n"
            "Relevant: f1\n"
            "Redundant:"
        ),
        BARTENDER_IT0,
    )

    # -- bartender: proof attempts (iteration 2 first)
    t.add(
        StageKind.CONSTRUCT_PROOF,
        _steps(
            'from asm have "Person tom \\<and> DressedInBlack tom" '
            "using explanation_1 by blast",
            'then have "Person tom \\<and> InBlack tom" '
            "using explanation_2 by blast",
            "then show ?thesis by blast",
        ),
        BARTENDER_IT2_B,
    )
    t.add(
        StageKind.CONSTRUCT_PROOF,
        _steps(
            'from asm have "Bartender tom" by blast',
            'then have "Person tom" using explanation_1 by blast',
            'then have "Person tom \\<and> InBlack tom" '
            "using explanation_2 by blast",
            "then show ?thesis by blast",
        ),
        BARTENDER_IT1_B,
    )
    t.add(
        StageKind.CONSTRUCT_PROOF,
        _steps(
            'from asm have "Bartender tom" by blast',
            'then have "Person tom \\<and> InBlack tom" '
            "using explanation_1 by blast",
            "then show ?thesis by blast",
        ),
        BARTENDER_IT0,
    )

    # -- bartender: refinements
    t.add(
        StageKind.REFINE_EXPLANATION,
        fenced("- %s\n- %s" % (BARTENDER_IT1_A, BARTENDER_IT1_B)),
        BARTENDER_IT0,
    )
    t.add(
        StageKind.REFINE_EXPLANATION,
        fenced("- %s\n- %s" % (BARTENDER_IT1_A, BARTENDER_IT2_B)),
        BARTENDER_IT1_B,
    )
    return t


# ---------------------------------------------------------------------------
# Synthetic batch corpus

_BATCH_DATASETS = ("esnli", "qasc", "worldtree")

_BATCH_HYPOTHESIS = "Some machine is operational."
_BATCH_GOOD_FACT = "A calibrated machine that is running is operational."
_BATCH_WEAK_FACT = "A calibrated machine is well maintained."

_BATCH_FORMULAS = {
    _BATCH_HYPOTHESIS: "∃x. Operational(x)",
    _BATCH_GOOD_FACT: "∀x. Calibrated(x) ∧ Running(x) → Operational(x)",
    _BATCH_WEAK_FACT: "∀x. Calibrated(x) → Maintained(x)",
}


def _batch_premise(family):
    return "Machine m%d is calibrated and running." % family


for _fam in range(10):
    _BATCH_FORMULAS[_batch_premise(_fam)] = (
        "Calibrated(m%d) ∧ Running(m%d)" % (_fam, _fam)
    )


def batch_problems(count=50):
    """Synthetic problems: even indexes verify on the first attempt,
    odd indexes need one refinement round."""
    problems = []
    for i in range(count):
        family = i % 10
        first = _BATCH_GOOD_FACT if i % 2 == 0 else _BATCH_WEAK_FACT
        problems.append(
            NLIProblem(
                id="batch_%03d" % i,
                premise_text=_batch_premise(family),
                hypothesis_text=_BATCH_HYPOTHESIS,
                explanation=(Fact("f1", first),),
                dataset=_BATCH_DATASETS[i % 3],
            )
        )
    return problems


_SENTENCE_RE = re.compile(r"^Sentence: (.*)$", re.M)
_NUMBERED_RE = re.compile(r"^(\d+)\. ", re.M)
_FACT_LINE_RE = re.compile(r"^(f\d+): ", re.M)


def batch_transport(extra_formulas=None):
    """Programmatic stand-in for the model over the batch corpus.

    Sentences map to formulas through a fixed table; proof construction
    always declines, so verdicts come from the direct theory check.
    """
    table = dict(_BATCH_FORMULAS)
    if extra_formulas:
        table.update(extra_formulas)

    def transport(request):
        stage = request["stage"]
        prompt = request["prompt"]
        if stage == StageKind.DETECT_EVENTS.value:
            numbers = _NUMBERED_RE.findall(prompt)
            return fenced("\n".join("%s:" % n for n in numbers))
        if stage == StageKind.SENTENCE_TO_LOGIC.value:
            sentence = _SENTENCE_RE.search(prompt).group(1)
            return fenced(table[sentence])
        if stage == StageKind.ROUGH_INFERENCE.value:
            ids = _FACT_LINE_RE.findall(prompt)
            return fenced(
                "Chain the calibration facts to the goal.\n"
                "Relevant: %s\nRedundant:" % ", ".join(ids)
            )
        if stage == StageKind.CONSTRUCT_PROOF.value:
            return "No usable proof found."
        if stage == StageKind.REFINE_EXPLANATION.value:
            return fenced("- " + _BATCH_GOOD_FACT)
        raise AssertionError("unexpected stage %s" % stage)

    return transport


# ---------------------------------------------------------------------------
# Paths corpus: one small problem per path through the loop
#
# Every problem shares a hypothesis and has its own premise, so a rule
# keyed on the premise text answers for exactly one problem.  Stages no
# rule answers fall back on the shared tables below.

SYNTAX_MARKER = "Garbled"

_PATHS_HYPOTHESIS = "Some pump works."
_PATHS_GOOD = "A running pump works."
_PATHS_WEAK = "A pump is a machine."
_PATHS_MARKED = "A running pump surely works."
_PATHS_MCQA_GOOD = "Every pump is a machine."
_PATHS_MCQA_WEAK = "A pump moves water."
_PATHS_EVENT = "A running pump that moves water through a hose works."
_TANGO_PREMISE = "Running pump tango moves the water w through the hose h."

_PATHS_FORMULAS = {
    _PATHS_HYPOTHESIS: "∃x. Pump(x) ∧ Working(x)",
    _PATHS_GOOD: "∀x. Pump(x) ∧ Running(x) → Working(x)",
    _PATHS_WEAK: "∀x. Pump(x) → Machine(x)",
    _PATHS_MARKED: "∀x. Pump(x) ∧ Running(x) → %sWorking(x)" % SYNTAX_MARKER,
    _PATHS_MCQA_GOOD: "∀x. Pump(x) → Machine(x)",
    _PATHS_MCQA_WEAK: "∀x. Pump(x) → Mover(x)",
    "A pump is a kind of machine": "∀x. Pump(x) → Machine(x)",
    _PATHS_EVENT: "∀x y z e. Pump(x) ∧ Running(x) ∧ Water(y) ∧ Hose(z) ∧ Moving(e) "
    "∧ Agent(e, x) ∧ Patient(e, y) ∧ Through(e, z) → Working(x)",
    _TANGO_PREMISE: "Pump(tango) ∧ Running(tango) ∧ Water(w) ∧ Hose(h) ∧ Moving(e) "
    "∧ Agent(e, tango) ∧ Patient(e, w) ∧ Through(e, h)",
}

# Sentences whose stage replies are scripted per path.
_EVENTS_NO_FENCE = "A running pump hums and works."
_EVENTS_UNLABELLED = "A running pump always works."
_FORMULA_NO_FENCE = "A running pump works well."
_FORMULA_EMPTY = "A running pump works hard."
_FORMULA_REJECTED = "A running pump works fine."

_NO_FENCE = "I am not sure how to answer this one."
_BLANK_REFINEMENT = fenced("\n- \n")


def _paths_premise(name):
    return _TANGO_PREMISE if name == "tango" else "Pump %s is running." % name


def _proof(*lines):
    return fenced("\n".join(lines))


def _good_proof(name):
    return _proof(
        'from asm have "Pump %s \\<and> Running %s" by blast' % (name, name),
        'then have "Working %s" using explanation_1 by blast' % name,
        "then show ?thesis using asm by blast",
    )


def _repair(mode):
    """A REFINE_SYNTAX reply computed from the theory in the prompt."""

    def reply(prompt):
        theory = re.search(r"Theory:\n(.*?)\n\nAnswer with", prompt, re.S).group(1)
        if mode == "fix":
            return fenced(theory.replace(SYNTAX_MARKER, ""))
        if mode == "leave":
            return fenced(theory)
        if mode == "garbage":
            return fenced("theory repaired\nthe axioms are fine now")
        return _NO_FENCE

    return reply


# (id suffix, premise constant, first explanation, rules).  A rule is
# (stage, needle, reply): a sentence-to-logic rule matches its needle, any
# other rule the problem's premise plus its needle when one is given.
_PATHS_PLAN = [
    ("events_no_fence", "alpha", [_EVENTS_NO_FENCE], [
        (StageKind.DETECT_EVENTS, _EVENTS_NO_FENCE, _NO_FENCE),
    ]),
    ("events_unlabelled", "bravo", [_EVENTS_UNLABELLED], [
        (StageKind.DETECT_EVENTS, _EVENTS_UNLABELLED,
         fenced("1: running\nno colon here\n3:")),
    ]),
    ("formula_no_fence", "charlie", [_FORMULA_NO_FENCE], [
        (StageKind.SENTENCE_TO_LOGIC, _FORMULA_NO_FENCE, _NO_FENCE),
    ]),
    # The blank formula comes back every round, so the budget runs out.
    ("formula_empty", "delta", [_FORMULA_EMPTY], [
        (StageKind.SENTENCE_TO_LOGIC, _FORMULA_EMPTY, fenced("  \n ")),
        (StageKind.REFINE_EXPLANATION, None, _NO_FENCE),
    ]),
    ("formula_rejected", "echo", [_FORMULA_REJECTED], [
        (StageKind.SENTENCE_TO_LOGIC, _FORMULA_REJECTED,
         fenced("∀x. Pump(x) ∧ Running(x) →")),
    ]),
    ("inference_no_fence", "foxtrot", [_PATHS_WEAK], [
        (StageKind.ROUGH_INFERENCE, None, _NO_FENCE),
    ]),
    ("inference_unknown_ids", "golf", [_PATHS_WEAK], [
        (StageKind.ROUGH_INFERENCE, _PATHS_WEAK,
         fenced("Pumps are machines.\nRelevant: f1, f7\nRedundant: f9")),
    ]),
    ("inference_bad_token", "hotel", [_PATHS_WEAK], [
        (StageKind.ROUGH_INFERENCE, None,
         fenced("Pumps are machines.\nRelevant: f1, f#2\nRedundant:")),
    ]),
    ("proof_no_show", "india", [_PATHS_WEAK], [
        (StageKind.CONSTRUCT_PROOF, _PATHS_WEAK, _proof(
            'from asm have "Pump india" by blast',
            'then have "Machine india" using explanation_1 by blast',
        )),
    ]),
    ("proof_dangling", "juliet", [_PATHS_GOOD], [
        (StageKind.CONSTRUCT_PROOF, None, _proof(
            'from asm have "Working juliet" using explanation_7 by blast',
            "then show ?thesis using asm by blast",
        )),
    ]),
    ("proof_first_step", "kilo", [_PATHS_WEAK], [
        (StageKind.CONSTRUCT_PROOF, _PATHS_WEAK, _proof(
            'from asm have "Working kilo" by blast',
            "then show ?thesis using asm by blast",
        )),
    ]),
    ("proof_later_step", "lima", [_PATHS_WEAK], [
        (StageKind.CONSTRUCT_PROOF, _PATHS_WEAK, _proof(
            'from asm have "Pump lima \\<and> Running lima" by blast',
            'then have "Working lima" using explanation_1 by blast',
            "then show ?thesis using asm by blast",
        )),
        (StageKind.CONSTRUCT_PROOF, _PATHS_GOOD, _good_proof("lima")),
    ]),
    ("syntax_fixed", "mike", [_PATHS_MARKED], [
        (StageKind.REFINE_SYNTAX, None, _repair("fix")),
        (StageKind.CONSTRUCT_PROOF, None, _good_proof("mike")),
    ]),
    ("syntax_left", "november", [_PATHS_MARKED], [
        (StageKind.REFINE_SYNTAX, None, _repair("leave")),
    ]),
    ("syntax_unparsed", "oscar", [_PATHS_MARKED], [
        (StageKind.REFINE_SYNTAX, None, _repair("garbage")),
    ]),
    ("syntax_no_fence", "papa", [_PATHS_MARKED], [
        (StageKind.REFINE_SYNTAX, None, _repair("no_fence")),
    ]),
    # A blank rewrite leaves the explanation as it was, every round.
    ("refine_blank", "quebec", [_PATHS_WEAK], [
        (StageKind.REFINE_EXPLANATION, None, _BLANK_REFINEMENT),
    ]),
    ("proof_last_step", "sierra", [_PATHS_WEAK], [
        (StageKind.CONSTRUCT_PROOF, _PATHS_WEAK, _proof(
            'from asm have "Pump sierra" by blast',
            'then have "Machine sierra" using explanation_1 by blast',
            'then have "Machine sierra \\<and> Running sierra" using asm by blast',
            "then show ?thesis by blast",
        )),
    ]),
    # Event semantics: a universal block four variables wide.
    ("event_width", "tango", [_PATHS_EVENT], [
        (StageKind.DETECT_EVENTS, _PATHS_EVENT, fenced("1:\n2: moves\n3:")),
    ]),
]

for _, _const, _, _ in _PATHS_PLAN:
    _PATHS_FORMULAS.setdefault(
        _paths_premise(_const), "Pump(%s) ∧ Running(%s)" % (_const, _const)
    )

_PATHS_MCQA = {
    "id": "paths_mcqa",
    "question": "A pump is a kind of ____?",
    "options": ["plant", "machine"],
    "answer_index": 1,
    "explanation": [_PATHS_MCQA_WEAK],
    "dataset": "qasc",
}


def paths_rows():
    """Raw JSONL rows of the paths corpus: entailment rows plus one
    multiple-choice row."""
    rows = [
        {
            "id": "paths_" + name,
            "premise": _paths_premise(const),
            "hypothesis": _PATHS_HYPOTHESIS,
            "explanation": explanation,
            "dataset": "paths",
        }
        for name, const, explanation, _ in _PATHS_PLAN
    ]
    rows.append(_PATHS_MCQA)
    return rows


def paths_transport():
    """Programmatic model for the paths corpus.

    Scripted rules come first.  Otherwise event detection finds no
    verbs, sentences map to formulas through a fixed table, the sketch
    calls every fact relevant, proof construction declines, and a
    refinement swaps in the one fact that closes the gap.
    """
    rules = []
    for _, const, _, plan in _PATHS_PLAN:
        for stage, needle, reply in plan:
            if stage is StageKind.SENTENCE_TO_LOGIC:
                needles = (needle,)
            else:
                needles = (_paths_premise(const),) + ((needle,) if needle else ())
            rules.append((stage.value, needles, reply))

    def transport(request):
        stage = request["stage"]
        prompt = request["prompt"]
        for rule_stage, needles, reply in rules:
            if rule_stage == stage and all(n in prompt for n in needles):
                return reply(prompt) if callable(reply) else reply
        if stage == StageKind.DETECT_EVENTS.value:
            numbers = _NUMBERED_RE.findall(prompt)
            return fenced("\n".join("%s:" % n for n in numbers))
        if stage == StageKind.SENTENCE_TO_LOGIC.value:
            sentence = _SENTENCE_RE.search(prompt).group(1)
            return fenced(_PATHS_FORMULAS[sentence])
        if stage == StageKind.ROUGH_INFERENCE.value:
            ids = _FACT_LINE_RE.findall(prompt)
            return fenced(
                "The facts bridge the premise to the goal.\n"
                "Relevant: %s\nRedundant:" % ", ".join(ids)
            )
        if stage == StageKind.CONSTRUCT_PROOF.value:
            return _NO_FENCE
        if stage == StageKind.REFINE_EXPLANATION.value:
            good = _PATHS_MCQA_GOOD if "Premise: (none)" in prompt else _PATHS_GOOD
            return fenced("- " + good)
        raise AssertionError("no scripted reply for stage %s" % stage)

    return transport


class MarkerSyntaxSession(OracleSession):
    """The ground oracle, except that every axiom whose formula uses a
    predicate named with SYNTAX_MARKER draws an inner syntax error, the
    way a live prover rejects a malformed term.  The oracle itself never
    reports syntax errors, so this is what drives the syntax repair
    paths offline."""

    def check_document(self, doc, timeout_s=65.0):
        messages = []
        for line_no, line in enumerate(doc.rendered.split("\n"), start=1):
            match = re.match(r'\s+(explanation_\d+): ".*%s' % SYNTAX_MARKER, line)
            if match:
                start, end = line_span(doc.rendered, line_no)
                messages.append(ProverMessage(
                    "error",
                    "Inner syntax error: unexpected token in axiom %s"
                    % match.group(1),
                    Span(line_no, start, end),
                ))
        if messages:
            return build_report("failed", messages, 0.0, doc)
        return super().check_document(doc, timeout_s)


@contextlib.contextmanager
def corpus_sessions(corpus):
    """While the paths corpus runs, `pipeline.start_session` opens
    MarkerSyntaxSession handles; the other corpora use the oracle as is."""
    if corpus != "paths":
        yield
        return
    original = pipeline.start_session
    pipeline.start_session = lambda backend: MarkerSyntaxSession(
        backend.domain_bound
    )
    try:
        yield
    finally:
        pipeline.start_session = original


# Corpus name -> (problem file, transcript cache, golden traces), all
# relative to tests/data.
CORPORA = {
    "esnli": ("esnli_pairs.jsonl", "replay/esnli.jsonl", "golden/esnli.jsonl"),
    "batch50": ("batch50.jsonl", "replay/batch50.jsonl", "golden/batch50.jsonl"),
    "paths": ("paths.jsonl", "replay/paths.jsonl", "golden/paths.jsonl"),
}


def golden_line(trace):
    """A trace as one golden line: scrubbed, keys in trace order."""
    return json.dumps(scrub_elapsed(trace_to_dict(trace)), ensure_ascii=False)


# ---------------------------------------------------------------------------
# Helpers shared with the acceptance suite

def scrub_elapsed(value):
    """Recursively zero the wall-clock fields of a trace dictionary."""
    if isinstance(value, dict):
        return {
            key: (0.0 if key == "elapsed" else scrub_elapsed(item))
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [scrub_elapsed(item) for item in value]
    return value

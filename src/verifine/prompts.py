"""Prompt templates, one per pipeline stage.

Placeholders use str.format syntax and are checked against the caller's
bindings before rendering.  Every template tells the model to put its
final answer inside a fenced code block because the gateway only reads
the last such block of a response; anything outside it is scratch space
the model may use freely.
"""

from typing import Dict

from .llmtypes import StageKind

_ENVELOPE = (
    "Put your final answer inside a fenced code block (``` ... ```). "
    "Only the last fenced block of your reply is read."
)

TEMPLATES: Dict[StageKind, str] = {
    StageKind.DETECT_EVENTS: (
        "You annotate sentences for event semantics. For each numbered "
        "sentence below, list the verbs that describe events or actions. "
        "Nouns, adjectives and copulas are not events.\n"
        "\n"
        "Sentences:\n"
        "{sentences}\n"
        "\n"
        "Answer with one line per sentence in the form `<number>: verb, verb` "
        "(leave the list empty after the colon when a sentence has no event "
        "verb). " + _ENVELOPE
    ),
    StageKind.SENTENCE_TO_LOGIC: (
        "Translate one natural-language sentence into a first-order formula.\n"
        "\n"
        "Conventions:\n"
        "- Predicates are capitalised words applied to variables, written "
        "Name(x) or Role(e, x).\n"
        "- Verbs found in the sentence become event predicates over an event "
        "variable e, with Agent(e, x) and Patient(e, y) linking participants.\n"
        "- Connectives: ∧ (and), ∨ (or), ¬ (not), → "
        "(implies); quantifiers: ∀ and ∃, e.g. ∀x y. ...\n"
        "- A premise sentence becomes a quantifier-free conjunction of atoms "
        "whose variables stay free.\n"
        "- An explanation sentence becomes a closed formula, usually a "
        "universally quantified implication.\n"
        "- A hypothesis sentence becomes a closed formula, usually "
        "existentially quantified.\n"
        "\n"
        "Sentence role: {role}\n"
        "Event verbs detected: {events}\n"
        "Sentence: {sentence}\n"
        "\n"
        "Answer with the formula alone. " + _ENVELOPE
    ),
    StageKind.REFINE_SYNTAX: (
        "The prover rejected the theory below with syntax errors. Repair the "
        "theory so it parses, changing as little as possible and keeping "
        "every axiom, the theorem statement, and all comments.\n"
        "\n"
        "Two worked examples of common repairs:\n"
        "\n"
        "Error: Type unification failed: Clash of types \"entity\" and "
        "\"bool\" caused by `Agent e` where Agent expects two arguments.\n"
        "Repair: give the predicate its declared argument count, e.g. "
        "`Agent e x`.\n"
        "\n"
        "Error: Inner syntax error: unexpected end of input, missing a "
        "closing bracket after `Woman x \\<and> (Violin y`.\n"
        "Repair: balance the brackets, e.g. `Woman x \\<and> (Violin y)`.\n"
        "\n"
        "Prover errors:\n"
        "{errors}\n"
        "\n"
        "Theory:\n"
        "{theory}\n"
        "\n"
        "Answer with the complete corrected theory text. " + _ENVELOPE
    ),
    StageKind.ROUGH_INFERENCE: (
        "Sketch, in plain language, how the hypothesis follows from the "
        "premise together with the explanation facts. Then judge which facts "
        "the argument actually needs.\n"
        "\n"
        "Premise: {premise}\n"
        "Hypothesis: {hypothesis}\n"
        "Facts:\n"
        "{facts}\n"
        "\n"
        "Answer with the argument sketch, then a line `relevant: <fact ids>` "
        "and a line `redundant: <fact ids>` (comma separated, either may be "
        "empty). " + _ENVELOPE
    ),
    StageKind.CONSTRUCT_PROOF: (
        "Write a linear Isar proof for the theory below, following the "
        "argument sketch. Use exactly these step forms, one per line:\n"
        "  from asm have \"...\" by blast\n"
        "  then have \"...\" using <fact names> by blast\n"
        "  then show ?thesis using <fact names> by blast\n"
        "Cite only asm and declared axiom names (explanation_1, ...). The "
        "last line must be the `then show ?thesis` form.\n"
        "\n"
        "Argument sketch:\n"
        "{strategy}\n"
        "\n"
        "Theory:\n"
        "{theory}\n"
        "\n"
        "Answer with the proof step lines alone, without `proof -` or `qed`. "
        + _ENVELOPE
    ),
    StageKind.REFINE_EXPLANATION: (
        "An explanation for an entailment failed verification. Rewrite it so "
        "the hypothesis provably follows from the premise plus the "
        "explanation. Stay faithful to the premise wording, keep sentences "
        "that already work, and make any missing link explicit as its own "
        "sentence. Do not restate the hypothesis as a fact.\n"
        "\n"
        "Premise: {premise}\n"
        "Hypothesis: {hypothesis}\n"
        "Current explanation:\n"
        "{facts}\n"
        "\n"
        "Prover error: {error_message}\n"
        "Failed proof step: {failed_step}\n"
        "Argument sketch: {strategy}\n"
        "Explanation sentences the failed step relied on:\n"
        "{relevant_sentences}\n"
        "\n"
        "Answer with the revised explanation, one sentence per line. "
        + _ENVELOPE
    ),
}

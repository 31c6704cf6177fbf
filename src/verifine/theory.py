"""Build and render prover theory documents.

A document declares one `entity` type, one boolean predicate constant per
predicate symbol, one named axiom per explanation sentence, and a single
theorem called `hypothesis` whose assumption is the premise formula and
whose goal is the hypothesis formula.  Proofs are linear: an opening
`from asm have`, any number of `then have` links, and a closing
`then show ?thesis`.

Formulas are written in the prover's inner syntax, one of the two
spellings of the single formula grammar in `verifine.logic`.  Rendered
text uses its ASCII escape sequences (\\<forall>, \\<and>, ...) rather
than raw Unicode, so the files survive transport through channels that
mangle non-ASCII bytes.  `parse_theory` inverts `render_theory` and also
tolerates raw Unicode connectives, which is what a language model
usually echoes back after a repair request.
"""

import enum
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .logic import (
    PARSE_CACHE_SIZE,
    Formula,
    LogicError,
    ParseError,
    free_variables,
    has_quantifier,
    validate_signature,
    _INNER,
    _Parser,
    _kept,
    _render,
)


class TheoryError(Exception):
    """Base class for theory construction errors."""


class OpenFormula(TheoryError):
    """A formula that must be closed has free variables."""

    def __init__(self, fact_id: str, names: Iterable[str] = ()):
        self.fact_id = fact_id
        self.names = tuple(sorted(names))
        detail = "formula for %r must be closed" % fact_id
        if self.names:
            detail += " (free: %s)" % ", ".join(self.names)
        super().__init__(detail)


class MalformedPremise(TheoryError):
    """The premise assumption may not contain quantifiers."""


class DanglingFactReference(TheoryError):
    """A proof step cites a fact name the theory never declares."""

    def __init__(self, step_index: int, name: str):
        self.step_index = step_index
        self.name = name
        super().__init__("step %d cites undeclared fact %r" % (step_index, name))


class TheoryParseError(TheoryError):
    """Theory text does not follow the rendered layout."""


AXIOM_NAME_RE = re.compile(r"explanation_[1-9][0-9]*\Z")

ASSUMPTION_NAME = "asm"
THEOREM_NAME = "hypothesis"
ENTITY_TYPE = "entity"


@dataclass(frozen=True)
class Axiom:
    """A named axiom; its formula must be closed (OpenFormula)."""

    name: str
    formula: Formula
    source_text: str = ""

    def __post_init__(self):
        if not AXIOM_NAME_RE.match(self.name):
            raise TheoryError("axiom name must be explanation_<k>: %r" % self.name)
        free = free_variables(self.formula)
        if free:
            raise OpenFormula(self.name, (v.name for v in free))


@dataclass(frozen=True)
class TheoremBlock:
    """The theorem.  The premise may be absent (the assumption renders as
    "True") and must otherwise be quantifier-free (MalformedPremise); the
    goal must be closed (OpenFormula named after the theorem)."""

    premise_assumption: Optional[Formula]
    goal: Formula
    premise_text: str = ""
    hypothesis_text: str = ""

    def __post_init__(self):
        premise = self.premise_assumption
        if premise is not None and has_quantifier(premise):
            raise MalformedPremise("premise assumption contains a quantifier")
        free = free_variables(self.goal)
        if free:
            raise OpenFormula(THEOREM_NAME, (v.name for v in free))


class StepKind(enum.Enum):
    FROM_ASM_HAVE = "from_asm_have"
    THEN_HAVE = "then_have"
    THEN_SHOW_THESIS = "then_show_thesis"


@dataclass(frozen=True)
class ProofStep:
    kind: StepKind
    goal_text: str = ""
    facts_used: Tuple[str, ...] = ()
    tactic: str = "blast"

    def __post_init__(self):
        object.__setattr__(self, "facts_used", tuple(self.facts_used))


@dataclass(frozen=True)
class TheoryDoc:
    """A theory, well-formed once built.

    `predicates` is derived, not passed: every predicate symbol of the
    axioms, then the premise, then the goal, in first-appearance order.
    A name used with two arities raises ArityConflict.  Building a
    document whose proof cites a name that is neither the assumption nor
    an axiom raises DanglingFactReference.
    """

    name: str
    axioms: Tuple[Axiom, ...]
    theorem: TheoremBlock
    proof: Tuple[ProofStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "proof", tuple(self.proof))
        formulas = [a.formula for a in self.axioms]
        premise, goal = self.theorem.premise_assumption, self.theorem.goal
        formulas += [goal] if premise is None else [premise, goal]
        # Not a field, like `rendered`: equality and hashing ignore it.
        object.__setattr__(self, "predicates", validate_signature(formulas))
        if not self.proof:
            return
        if self.proof[-1].kind is not StepKind.THEN_SHOW_THESIS:
            raise TheoryError("final proof step must be then_show_thesis")
        known = {ASSUMPTION_NAME, *self.axiom_names()}
        for index, step in enumerate(self.proof):
            for name in step.facts_used:
                if name not in known:
                    raise DanglingFactReference(index, name)

    @cached_property
    def rendered(self) -> str:
        # Kept in the instance __dict__: equality and hashing ignore it.
        return render_theory(self)

    def axiom_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.axioms)

    def with_proof(self, proof: Sequence[ProofStep]) -> "TheoryDoc":
        return replace(self, proof=tuple(proof))

    def without_proof(self) -> "TheoryDoc":
        return replace(self, proof=())


# ---------------------------------------------------------------------------
# Inner syntax: the prover-side spelling of the grammar in verifine.logic

@_kept("_inner")
def isabelle_formula(f: Formula) -> str:
    """Render a formula in prover inner syntax with ASCII escapes."""
    return _render(f, _INNER)


def _const_type(arity: int) -> str:
    return " \\<Rightarrow> ".join([ENTITY_TYPE] * arity + ["bool"])


def _comment(label: str, text: str) -> str:
    # A body without "*" can neither nest a comment nor close one early:
    # backslashes double and each star becomes the \<star> symbol.
    safe = text.replace("\\", "\\\\").replace("*", "\\<star>")
    return "(* %s: %s *)" % (label, safe)


def proof_step_text(step: ProofStep) -> str:
    """One proof step as Isar text, without indentation."""
    cited = step.facts_used
    if step.kind is StepKind.FROM_ASM_HAVE:
        line = 'from %s have "%s"' % (ASSUMPTION_NAME, step.goal_text)
        cited = [n for n in cited if n != ASSUMPTION_NAME]
    elif step.kind is StepKind.THEN_HAVE:
        line = 'then have "%s"' % step.goal_text
    else:
        line = "then show ?thesis"
    if cited:
        line += " using %s" % " ".join(cited)
    return "%s by %s" % (line, step.tactic)


def render_theory(doc: TheoryDoc) -> str:
    """Deterministically render the full theory document."""
    out: List[str] = []
    out.append("theory %s" % doc.name)
    out.append("imports Main")
    out.append("begin")
    out.append("")
    out.append("typedecl %s" % ENTITY_TYPE)
    out.append("")
    if doc.predicates:
        out.append("consts")
        for pred in doc.predicates:
            out.append('  %s :: "%s"' % (pred.name, _const_type(pred.arity)))
        out.append("")
    if doc.axioms:
        out.append("axiomatization where")
        for i, axiom in enumerate(doc.axioms):
            number = axiom.name.split("_")[-1]
            if axiom.source_text:
                out.append("  %s" % _comment("Explanation %s" % number, axiom.source_text))
            entry = '  %s: "%s"' % (axiom.name, isabelle_formula(axiom.formula))
            if i + 1 < len(doc.axioms):
                entry += " and"
            out.append(entry)
        out.append("")
    out.append("theorem %s:" % THEOREM_NAME)
    if doc.theorem.premise_text:
        out.append("  %s" % _comment("Premise", doc.theorem.premise_text))
    if doc.theorem.premise_assumption is None:
        out.append('  assumes %s: "True"' % ASSUMPTION_NAME)
    else:
        out.append(
            '  assumes %s: "%s"'
            % (ASSUMPTION_NAME, isabelle_formula(doc.theorem.premise_assumption))
        )
    if doc.theorem.hypothesis_text:
        out.append("  %s" % _comment("Hypothesis", doc.theorem.hypothesis_text))
    out.append('  shows "%s"' % isabelle_formula(doc.theorem.goal))
    if doc.proof:
        out.append("proof -")
        out.extend("  " + proof_step_text(step) for step in doc.proof)
        out.append("qed")
    out.append("")
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Span bookkeeping over rendered text

def line_span(text: str, line_no: int) -> Tuple[int, int]:
    """1-based (start, end) character offsets of a 1-based line."""
    lines = text.split("\n")
    if not 1 <= line_no <= len(lines):
        raise ValueError("line %d out of range" % line_no)
    start = sum(len(l) + 1 for l in lines[: line_no - 1]) + 1
    return (start, start + len(lines[line_no - 1]))


def shows_line(doc: TheoryDoc) -> int:
    """1-based line number of the theorem's `shows` line."""
    # The rendered text ends with the shows line, the proof block if any
    # (`proof -`, one line per step, `qed`), a blank line and `end`.
    proof_lines = len(doc.proof) + 2 if doc.proof else 0
    return doc.rendered.count("\n") - 2 - proof_lines


def proof_region(doc: TheoryDoc) -> Optional[Tuple[int, int]]:
    """1-based line numbers of `proof -` and `qed`, when a proof exists."""
    if not doc.proof:
        return None
    start = shows_line(doc) + 1
    return (start, start + len(doc.proof) + 1)


def proof_step_lines(doc: TheoryDoc) -> List[int]:
    """1-based line number of each proof step in the rendered text."""
    region = proof_region(doc)
    return list(range(region[0] + 1, region[1])) if region else []


# ---------------------------------------------------------------------------
# Parsing theory text back into structured form

@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_inner_formula(text: str) -> Formula:
    """Parse prover inner syntax (escaped or raw Unicode) to a Formula.

    The tree is shared with every other caller of the same text (see
    `verifine.logic`); a TheoryParseError is raised afresh on each call.
    """
    try:
        return _Parser(text, _INNER).parse()
    except ParseError as exc:
        raise TheoryParseError(str(exc)) from exc


def parse_assumption(text: str) -> Optional[Formula]:
    """Parse an assumption string; the degenerate "True" maps to None."""
    if text.strip() == "True":
        return None
    return parse_inner_formula(text)


# One pattern for the three step forms; a `then show ?thesis` step has no
# goal text, and a `from asm have` step always cites the assumption.
_STEP_RE = re.compile(
    r"\s*(?:(?P<opener>from\s+asm|then)\s+have\s+\"(?P<goal>.*)\""
    r"|then\s+show\s+\?thesis)\s*"
    r"(?:using\s+(?P<facts>[A-Za-z0-9_ ]+?)\s*)?by\s+(?P<tactic>.+?)\s*$"
)
_PROOF_OPENER_RE = re.compile(r"^proof\s*-\s*$", re.M)


def _normalise_goal_text(text: str) -> str:
    # Step goals echoed back with raw Unicode (or odd spacing) are
    # re-rendered through the formula layer; unparseable text stays as is.
    try:
        return isabelle_formula(parse_inner_formula(text))
    except TheoryParseError:
        return text


def parse_proof_line(line: str) -> Optional[ProofStep]:
    """Parse one Isar proof line; None when it matches no step form.

    Parseable step goals are normalised to the canonical inner-syntax
    rendering, so parsing is idempotent over rendered proofs.
    """
    match = _STEP_RE.match(line)
    if match is None:
        return None
    opener, goal, facts = match.group("opener", "goal", "facts")
    facts = tuple((facts or "").split())
    if opener is None:
        kind = StepKind.THEN_SHOW_THESIS
    elif opener == "then":
        kind = StepKind.THEN_HAVE
    else:
        kind = StepKind.FROM_ASM_HAVE
        if ASSUMPTION_NAME not in facts:
            facts = (ASSUMPTION_NAME,) + facts
    goal_text = _normalise_goal_text(goal) if goal else ""
    return ProofStep(kind, goal_text, facts, match.group("tactic").strip())


def parse_proof_block(text: str) -> List[ProofStep]:
    """Parse the steps of a proof block, up to its `qed`.

    Blank lines and `proof -` openers are skipped.  Raises
    TheoryParseError on a line that is no step, and unless the last step
    is `then show ?thesis`.
    """
    steps: List[ProofStep] = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped == "qed":
            break
        if not stripped or _PROOF_OPENER_RE.match(stripped):
            continue
        step = parse_proof_line(stripped)
        if step is None:
            raise TheoryParseError("unrecognised proof line: %r" % stripped)
        steps.append(step)
    if not steps or steps[-1].kind is not StepKind.THEN_SHOW_THESIS:
        raise TheoryParseError("proof must close with `then show ?thesis`")
    return steps


_THEORY_NAME_RE = re.compile(r"^\s*theory\s+([A-Za-z][A-Za-z0-9_]*)", re.M)
_THEOREM_RE = re.compile(r"^[ \t]*theorem\b", re.M)
_AXIOM_ENTRY_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_]*)\s*:\s*\"([^\"]*)\"", re.M
)
_ASSUMES_RE = re.compile(r"assumes\s+asm\s*:\s*\"([^\"]*)\"")
_SHOWS_RE = re.compile(r"shows\s+\"([^\"]*)\"")
# Any comment, over every line it spans; a labelled one holds a sentence.
_COMMENT_RE = re.compile(
    r"\(\*(?:\s*(Explanation\s+\d+|Premise|Hypothesis)\s*:)?\s*(.*?)\s*\*\)", re.S
)
# Inverts the escape `_comment` applies to a sentence.
_COMMENT_ESCAPE_RE = re.compile(r"\\(\\|<star>)")


def parse_theory(text: str) -> TheoryDoc:
    """Parse theory text in the rendered layout back into a TheoryDoc.

    The consts block is not read: the document derives its predicates
    from the parsed formulas.  Raises TheoryParseError when the layout or
    any formula is malformed, and when the document refuses what was
    read (an open axiom, a quantified premise, an arity clash, ...).
    """
    # Comments hold free sentence text, so the structural scans below
    # run on the text with every comment lifted out.
    comments: Dict[str, str] = {}
    for match in _COMMENT_RE.finditer(text):
        if match.group(1):
            key = match.group(1).lower().replace(" ", "")
            body = _COMMENT_ESCAPE_RE.sub(
                lambda m: "*" if m.group(1) == "<star>" else "\\", match.group(2)
            )
            comments.setdefault(key, body)
    text = _COMMENT_RE.sub(" ", text)

    name_match = _THEORY_NAME_RE.search(text)
    if name_match is None:
        raise TheoryParseError("missing `theory <name>` header")
    name = name_match.group(1)

    theorem_match = _THEOREM_RE.search(text)
    if theorem_match is None:
        raise TheoryParseError("missing theorem block")
    theorem_at = theorem_match.start()

    axioms = []
    head = text[:theorem_at]
    if "axiomatization" in head:
        block = head[head.index("axiomatization"):]
        for match in _AXIOM_ENTRY_RE.finditer(block):
            axiom_name, body = match.group(1), match.group(2)
            number = axiom_name.split("_")[-1]
            source = comments.get("explanation" + number, "")
            axioms.append((axiom_name, parse_inner_formula(body), source))

    assumes = _ASSUMES_RE.search(text, theorem_at)
    shows = _SHOWS_RE.search(text, theorem_at)
    if assumes is None or shows is None:
        raise TheoryParseError("theorem block needs `assumes asm:` and `shows`")
    premise = parse_assumption(assumes.group(1))
    goal = parse_inner_formula(shows.group(1))

    opener = _PROOF_OPENER_RE.search(text, theorem_at)
    proof = parse_proof_block(text[opener.end():]) if opener else []

    try:
        theorem = TheoremBlock(
            premise, goal, comments.get("premise", ""), comments.get("hypothesis", "")
        )
        return TheoryDoc(name, tuple(Axiom(*a) for a in axioms), theorem, tuple(proof))
    except (TheoryError, LogicError) as exc:
        raise TheoryParseError(str(exc)) from exc

"""Shared test utilities.

Holds the random formula generator used by the round-trip suites, an
atom walker, an independent truth-table entailment enumerator (no code
shared with the package's ground oracle: different grounding
representation, no clausification, plain exhaustive assignment search),
a scripted transport for driving LLM stages without a network, and a
writer of problem files.
"""

import itertools
import json
import random
from typing import Dict, Iterable, List, Sequence, Tuple

from hypothesis import strategies as st

from verifine.logic import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    PredicateSymbol,
    Variable,
    free_variables,
)
from verifine.pipeline import NLIProblem

UNARY_PREDS = ("P", "Q", "R", "S")
BINARY_PREDS = ("Agent", "Patient", "Near")
FREE_VARS = ("x", "y", "z")


def random_formula(rng: random.Random, max_depth: int = 4) -> Formula:
    """A random well-formed formula with consistent arities.

    Quantifier variables are drawn fresh (q1, q2, ...) so prefixes never
    collide, keeping construction total under prefix flattening.
    """
    fresh = itertools.count(1)

    def go(depth: int, scope: List[str]) -> Formula:
        roll = rng.random()
        if depth <= 0 or roll < 0.30:
            if rng.random() < 0.75:
                name = rng.choice(UNARY_PREDS)
                return Atom(
                    PredicateSymbol(name, 1), (Variable(rng.choice(scope)),)
                )
            name = rng.choice(BINARY_PREDS)
            return Atom(
                PredicateSymbol(name, 2),
                (Variable(rng.choice(scope)), Variable(rng.choice(scope))),
            )
        if roll < 0.42:
            return Not(go(depth - 1, scope))
        if roll < 0.56:
            return And(go(depth - 1, scope), go(depth - 1, scope))
        if roll < 0.70:
            return Or(go(depth - 1, scope), go(depth - 1, scope))
        if roll < 0.84:
            return Implies(go(depth - 1, scope), go(depth - 1, scope))
        cls = Forall if rng.random() < 0.5 else Exists
        count = 2 if rng.random() < 0.4 else 1
        new = ["q%d" % next(fresh) for _ in range(count)]
        body = go(depth - 1, scope + new)
        return cls(tuple(Variable(v) for v in new), body)

    return go(max_depth, list(FREE_VARS))


def make_formulas(count: int, seed: int) -> List[Formula]:
    rng = random.Random(seed)
    return [random_formula(rng) for _ in range(count)]


@st.composite
def formula_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    depth = draw(st.integers(min_value=1, max_value=5))
    return random_formula(random.Random(seed), depth)


def walked_atoms(f: Formula) -> List[Atom]:
    """The atom objects of a formula, left to right."""
    if isinstance(f, Atom):
        return [f]
    if isinstance(f, Not):
        return walked_atoms(f.child)
    if isinstance(f, (And, Or, Implies)):
        return walked_atoms(f.left) + walked_atoms(f.right)
    return walked_atoms(f.body)


# ---------------------------------------------------------------------------
# Independent entailment oracle: ground to a propositional tree, compile
# to a Python boolean expression, enumerate every truth assignment.

def _ground(f: Formula, domain: Sequence[int], env: Dict[str, int]):
    if isinstance(f, Atom):
        key = (f.pred.name,) + tuple(env[v.name] for v in f.args)
        return ("atom", key)
    if isinstance(f, Not):
        return ("not", _ground(f.child, domain, env))
    if isinstance(f, And):
        return ("conj", [_ground(f.left, domain, env), _ground(f.right, domain, env)])
    if isinstance(f, Or):
        return ("disj", [_ground(f.left, domain, env), _ground(f.right, domain, env)])
    if isinstance(f, Implies):
        return (
            "disj",
            [("not", _ground(f.left, domain, env)), _ground(f.right, domain, env)],
        )
    if isinstance(f, (Forall, Exists)):
        kind = "conj" if isinstance(f, Forall) else "disj"
        names = [v.name for v in f.vars]
        parts = []
        for combo in itertools.product(domain, repeat=len(names)):
            inner = dict(env)
            inner.update(zip(names, combo))
            parts.append(_ground(f.body, domain, inner))
        return (kind, parts)
    raise TypeError("not a formula: %r" % (f,))


def _collect_atoms(prop, acc: List[Tuple]) -> None:
    tag = prop[0]
    if tag == "atom":
        if prop[1] not in acc:
            acc.append(prop[1])
    elif tag == "not":
        _collect_atoms(prop[1], acc)
    else:
        for child in prop[1]:
            _collect_atoms(child, acc)


def _expr(prop, index: Dict[Tuple, int]) -> str:
    tag = prop[0]
    if tag == "atom":
        return "v[%d]" % index[prop[1]]
    if tag == "not":
        return "(not %s)" % _expr(prop[1], index)
    joiner = " and " if tag == "conj" else " or "
    return "(%s)" % joiner.join(_expr(child, index) for child in prop[1])


def _ground_problem(
    premises: Sequence[Formula], goal: Formula, extra_constants: int
) -> Tuple[List, List[Tuple]]:
    """The grounded premises and negated goal, and their distinct atoms.
    Domain: one element per free variable plus `extra_constants`
    anonymous elements (minimum one)."""
    frees: List[str] = []
    for f in list(premises) + [goal]:
        for v in sorted(free_variables(f), key=lambda v: v.name):
            if v.name not in frees:
                frees.append(v.name)
    size = max(1, len(frees) + extra_constants)
    domain = list(range(size))
    env = {name: i for i, name in enumerate(frees)}
    props = [_ground(p, domain, env) for p in premises]
    props.append(("not", _ground(goal, domain, env)))
    atoms: List[Tuple] = []
    for prop in props:
        _collect_atoms(prop, atoms)
    return props, atoms


def ground_atom_count(
    premises: Sequence[Formula], goal: Formula, extra_constants: int
) -> int:
    """How many atoms `brute_entails` enumerates: it takes 2**n steps."""
    return len(_ground_problem(premises, goal, extra_constants)[1])


def brute_entails(
    premises: Sequence[Formula], goal: Formula, extra_constants: int
) -> bool:
    """True iff every truth assignment satisfying the grounded premises
    also satisfies the grounded goal, over the domain of
    `_ground_problem`."""
    props, atoms = _ground_problem(premises, goal, extra_constants)
    index = {key: i for i, key in enumerate(atoms)}
    source = " and ".join("(%s)" % _expr(prop, index) for prop in props)
    code = compile(source if source else "True", "<prop>", "eval")
    for bits in itertools.product((False, True), repeat=len(atoms)):
        if eval(code, {"v": bits}):  # a countermodel exists
            return False
    return True


# ---------------------------------------------------------------------------
# Scripted LLM transport

def fenced(text: str) -> str:
    return "```\n%s\n```" % text


class ScriptedTransport:
    """Route stage prompts to canned responses.

    Rules match on the stage name plus required prompt substrings; the
    first match wins.  An unmatched prompt raises `AssertionError`
    inside `run_refiner`, which records a `pipeline error` trace
    (`exhausted_invalid`, the error as its diagnostic) and does not fail
    the test.  So a test of a whole problem that expects a rejected
    explanation also asserts `trace.diagnostic is None`.
    """

    def __init__(self):
        self.rules: List[Tuple[str, Tuple[str, ...], str]] = []
        self.calls: List[Tuple[str, str]] = []

    def add(self, stage, response: str, *needles: str) -> "ScriptedTransport":
        self.rules.append((stage.value, tuple(needles), response))
        return self

    def __call__(self, request: dict) -> str:
        stage = request["stage"]
        prompt = request["prompt"]
        self.calls.append((stage, prompt))
        for rule_stage, needles, response in self.rules:
            if rule_stage == stage and all(n in prompt for n in needles):
                return response
        raise AssertionError(
            "no scripted response for stage %s; prompt starts: %r"
            % (stage, prompt[:160])
        )


# ---------------------------------------------------------------------------
# Problem files

def save_problems(problems: Iterable[NLIProblem], path: str) -> None:
    """Write problems as canonical entailment JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for problem in problems:
            record = {
                "id": problem.id,
                "premise": problem.premise_text,
                "hypothesis": problem.hypothesis_text,
                "explanation": [f.text for f in problem.explanation],
            }
            if problem.dataset != "default":
                record["dataset"] = problem.dataset
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

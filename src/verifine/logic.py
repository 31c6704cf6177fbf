"""First-order formulas over unary and binary predicates.

The formula language is deliberately small: predicate atoms over plain
variables, the usual connectives, and multi-variable quantifier blocks.
There are no function symbols and no equality.  Event verbs are treated
like any other predicate (an event variable plus Agent/Patient roles),
so nothing here is event-specific.

One grammar, with one tokeniser, parser and renderer, serves two
surface syntaxes: canonical text (`parse_formula`, `render_formula`) and
the prover's inner syntax (used by `verifine.theory`).

    formula     := quantified | implication
    quantified  := (FORALL | EXISTS) vars "." formula
    implication := disjunct (IMPLIES implication)?
    disjunct    := conjunct (OR disjunct)?
    conjunct    := negation (AND conjunct)?
    negation    := NOT negation | primary
    primary     := atom | "(" formula ")"
    vars        := NAME ("," ? NAME)*

Spellings, accepted on parse; the renderer emits the first one:

    token     canonical      inner
    FORALL    ∀ forall       \\<forall> ∀
    EXISTS    ∃ exists       \\<exists> ∃
    NOT       ¬ ~            \\<not> ¬
    AND       ∧ &            \\<and> ∧
    OR        ∨ |            \\<or> ∨
    IMPLIES   → ->           \\<longrightarrow> ⟶ \\<rightarrow> →
    atom      P(x, y)        P x y, also P(x, y) with optional commas

Inner names may contain primes, which read as underscores.

Binary connectives associate to the right, matching the prover's inner
syntax so rendered conjunction chains stay flat in both syntaxes.

Formulas are immutable, so a parse is shared: each syntax's parser keeps
the trees of recently parsed texts (up to PARSE_CACHE_SIZE of them) and
hands the same tree to every caller, across problems and threads.  A
text that fails to parse is never kept and raises on every call.  Within
one parse, each variable name is one `Variable` object and each name and
arity one `PredicateSymbol`.

A node also keeps what is derived from it, so a shared tree is walked
once however often documents, renders and prover checks ask: its hash,
its free variables (`free_variables`), its predicate symbols in
first-appearance order (`predicate_symbols`), whether it holds a
quantifier (`has_quantifier`) and its prover inner-syntax text
(`verifine.theory.isabelle_formula`).  Each value is worked out the
first time a caller asks for it and kept from then on; two threads that
ask at once both compute the same value.  The values live in slots that
are not dataclass fields, so equality, `repr` and the trace codec never
see them, and the nodes are slotted dataclasses, so a kept tree carries
no per-node dict.
"""

import functools
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class LogicError(Exception):
    """Base class for errors raised by this module."""


class ParseError(LogicError):
    """Formula text rejected; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: Tuple[str, ...] = ()):
        self.message = message
        self.offset = offset
        self.expected = tuple(expected)
        detail = "%s at byte %d" % (message, offset)
        if self.expected:
            detail += " (expected %s)" % ", ".join(self.expected)
        super().__init__(detail)


class ArityError(LogicError):
    """A predicate name was used with two different argument counts."""

    def __init__(self, name: str, arities: Iterable[int]):
        self.name = name
        self.arities = tuple(sorted(set(arities)))
        super().__init__(
            "predicate %r used with arities %s" % (name, list(self.arities))
        )


class ArityConflict(LogicError):
    """Signature merge failure across several formulas."""

    def __init__(self, name: str, arities: Iterable[int], locations: Iterable[int]):
        self.name = name
        self.arities = tuple(sorted(set(arities)))
        self.locations = tuple(locations)
        super().__init__(
            "predicate %r has conflicting arities %s (formulas %s)"
            % (name, list(self.arities), list(self.locations))
        )


@dataclass(frozen=True, order=True, slots=True)
class Variable:
    name: str

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise ValueError("invalid variable name: %r" % self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class PredicateSymbol:
    name: str
    arity: int

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise ValueError("invalid predicate name: %r" % self.name)
        if self.arity < 1:
            raise ValueError("predicate arity must be >= 1: %s" % self.name)


class Formula:
    """Abstract base; use the concrete node classes below.

    The slots hold the values a node keeps (see the module docstring);
    each stays unset until a caller first asks for it.
    """

    __slots__ = ("_hash", "_free", "_predicates", "_quantified", "_inner")

    def __str__(self):
        return render_formula(self)


def _kept(slot: str):
    """Keep what the decorated function derives from a node in `slot`:
    worked out on the first call, read on every later one."""

    def decorate(derive):
        @functools.wraps(derive)
        def kept(f):
            try:
                return getattr(f, slot)
            except AttributeError:
                value = derive(f)
                # Nodes are frozen; a kept value is all that is ever
                # written to one after construction.
                object.__setattr__(f, slot, value)
                return value

        return kept

    return decorate


def _node(cls):
    """A frozen slotted dataclass node that keeps its structural hash."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = _kept("_hash")(cls.__hash__)
    return cls


@_node
class Atom(Formula):
    pred: PredicateSymbol
    args: Tuple[Variable, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.pred.arity:
            raise ArityError(self.pred.name, (self.pred.arity, len(self.args)))


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


def _normalise_binder(node, vars_, body):
    # Same-kind nesting is flattened on construction so one multi-variable
    # binder is the only representation a prefix ever has.
    vars_ = tuple(vars_)
    while isinstance(body, type(node)):
        vars_ = vars_ + body.vars
        body = body.body
    if not vars_:
        raise ValueError("quantifier needs at least one variable")
    names = [v.name for v in vars_]
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable in quantifier prefix: %s" % names)
    object.__setattr__(node, "vars", vars_)
    object.__setattr__(node, "body", body)


@_node
class Forall(Formula):
    vars: Tuple[Variable, ...]
    body: Formula

    def __post_init__(self):
        _normalise_binder(self, self.vars, self.body)


@_node
class Exists(Formula):
    vars: Tuple[Variable, ...]
    body: Formula

    def __post_init__(self):
        _normalise_binder(self, self.vars, self.body)


# ---------------------------------------------------------------------------
# The grammar: one tokeniser, parser and renderer for both surface syntaxes

# The precedence ladder, loosest first.  The parser descends it; the
# renderer parenthesises a child whose level is below the level its
# position requires.  Binary connectives associate to the right.
_LEVEL = {Forall: 0, Exists: 0, Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}
_BINARY = {_LEVEL[cls]: cls for cls in (Implies, Or, And)}

_IDENT = "IDENT"
_END = "END"
_PUNCTUATION = {"(": "(", ")": ")", ".": ".", ",": ","}


class _Syntax(NamedTuple):
    """One surface spelling of the grammar, as data."""

    token_re: re.Pattern  # optional whitespace, then a token or a stray character
    kinds: Dict[str, object]  # spelling -> token kind; other words are identifiers
    curried: bool  # atoms may read `P x y`, or `P(x y,)` with optional commas
    spell: Dict[type, str]  # connective -> the text the renderer emits
    atom: Tuple[str, str, str]  # opening, separator, closing around arguments


def _syntax(ident: str, kinds: Dict[str, object], curried: bool, spell, atom):
    kinds = {**kinds, **_PUNCTUATION}
    symbols = [k for k in kinds if not re.match(ident, k)]
    symbols.sort(key=len, reverse=True)
    token = "|".join([ident] + [re.escape(s) for s in symbols])
    token_re = re.compile(r"\s*(?:(%s)|(\S)|\Z)" % token)
    return _Syntax(token_re, kinds, curried, spell, atom)


# Canonical text, `∀x. P(x) → Q(x, y)`, also accepted with ASCII spellings.
_CANONICAL = _syntax(
    r"[A-Za-z][A-Za-z0-9_]*",
    {
        "∀": Forall, "forall": Forall,
        "∃": Exists, "exists": Exists,
        "¬": Not, "~": Not,
        "∧": And, "&": And,
        "∨": Or, "|": Or,
        "→": Implies, "->": Implies,
    },
    curried=False,
    spell={
        Forall: "∀", Exists: "∃", Not: "¬", And: " ∧ ", Or: " ∨ ", Implies: " → "
    },
    atom=("(", ", ", ")"),
)

# Prover inner syntax, `\<forall>x. P x \<longrightarrow> Q x y`: ASCII
# escapes or the raw Unicode a language model echoes back.  Primes in
# identifiers become underscores.
_INNER = _syntax(
    r"[A-Za-z][A-Za-z0-9_']*",
    {
        "∀": Forall, "\\<forall>": Forall,
        "∃": Exists, "\\<exists>": Exists,
        "¬": Not, "\\<not>": Not,
        "∧": And, "\\<and>": And,
        "∨": Or, "\\<or>": Or,
        "⟶": Implies, "\\<longrightarrow>": Implies,
        "→": Implies, "\\<rightarrow>": Implies,
    },
    curried=True,
    spell={
        Forall: "\\<forall>", Exists: "\\<exists>", Not: "\\<not> ",
        And: " \\<and> ", Or: " \\<or> ", Implies: " \\<longrightarrow> ",
    },
    atom=(" ", " ", ""),
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str, syntax: _Syntax) -> List[Tuple[object, str, int]]:
    """(kind, text, character offset) triples, ending with an END token."""
    tokens = []
    kinds = syntax.kinds
    for match in syntax.token_re.finditer(text):
        word, stray = match.group(1, 2)
        if word is None:
            if stray is None:
                break
            raise ParseError(
                "unexpected character %r" % stray, _byte_offset(text, match.start(2))
            )
        kind = kinds.get(word, _IDENT)
        # Only the inner identifier pattern admits primes.
        tokens.append((kind, word.replace("'", "_"), match.start(1)))
    tokens.append((_END, "", len(text)))
    return tokens


# Parentheses, negations, quantifier bodies and right operands each nest
# one level.  The bound keeps every accepted formula shallow enough for
# the recursive dataclass hash and equality and the recursive walkers.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, syntax: _Syntax):
        self.text = text
        self.curried = syntax.curried
        self.tokens = _tokenize(text, syntax)
        self.i = 0
        self.depth = 0
        # One object per distinct symbol, shared by every atom of the tree.
        self.variables: Dict[str, Variable] = {}
        self.predicates: Dict[Tuple[str, int], PredicateSymbol] = {}

    def peek(self) -> Tuple[object, str, int]:
        return self.tokens[self.i]

    def advance(self) -> Tuple[object, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, expected: Tuple[str, ...] = ()):
        raise ParseError(message, _byte_offset(self.text, self.peek()[2]), expected)

    def expect(self, kind: str, what: str) -> Tuple[object, str, int]:
        if self.peek()[0] != kind:
            self.fail("expected %s" % what, (what,))
        return self.advance()

    def nested(self, parse, *args) -> Formula:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("formula nested too deeply")
        f = parse(*args)
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek()[0] is not _END:
            self.fail("trailing input after formula", ("end of input",))
        return f

    def formula(self) -> Formula:
        cls, _, pos = self.peek()
        if cls is not Forall and cls is not Exists:
            return self.binary(_LEVEL[Implies])
        self.advance()
        vars_ = self.names("bound variable", "variable name")
        self.expect(".", "'.'")
        body = self.nested(self.formula)
        try:
            return cls(tuple(vars_), body)
        except ValueError as exc:
            raise ParseError(str(exc), _byte_offset(self.text, pos)) from exc

    def names(self, what: str, expected: str) -> List[Variable]:
        # NAME ("," ? NAME)* with an optional trailing comma.
        names = []
        while True:
            if self.peek()[0] is not _IDENT:
                if names:
                    return names
                self.fail("expected %s" % what, (expected,))
            names.append(self.variable(self.advance()[1]))
            if self.peek()[0] == ",":
                self.advance()

    def binary(self, level: int) -> Formula:
        if level < _LEVEL[And]:
            left = self.binary(level + 1)
        else:
            left = self.negation()
        cls = _BINARY[level]
        if self.peek()[0] is not cls:
            return left
        self.advance()
        return cls(left, self.nested(self.binary, level))

    def negation(self) -> Formula:
        if self.peek()[0] is Not:
            self.advance()
            return Not(self.nested(self.negation))
        return self.primary()

    def primary(self) -> Formula:
        kind = self.peek()[0]
        if kind == "(":
            self.advance()
            inner = self.nested(self.formula)
            self.expect(")", "')'")
            return inner
        if kind is not _IDENT:
            self.fail(
                "expected a formula", ("predicate atom", "quantifier", "'('", "'¬'")
            )
        name = self.advance()[1]
        if self.curried and self.peek()[0] != "(":
            args = [self.argument()]
            while self.peek()[0] is _IDENT:
                args.append(self.variable(self.advance()[1]))
            return Atom(self.predicate(name, len(args)), tuple(args))
        self.expect("(", "'('")
        if self.curried:
            args = self.names("argument name", "argument name")
        else:
            args = [self.argument()]
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.argument())
        self.expect(")", "')'")
        return Atom(self.predicate(name, len(args)), tuple(args))

    def argument(self) -> Variable:
        return self.variable(self.expect(_IDENT, "argument name")[1])

    def variable(self, name: str) -> Variable:
        var = self.variables.get(name)
        if var is None:
            var = self.variables[name] = Variable(name)
        return var

    def predicate(self, name: str, arity: int) -> PredicateSymbol:
        pred = self.predicates.get((name, arity))
        if pred is None:
            pred = self.predicates[name, arity] = PredicateSymbol(name, arity)
        return pred


# Distinct texts whose parse each syntax keeps.  A batch draws its
# formulas from shared fact banks, so a few hundred texts recur across
# its problems and rounds.
PARSE_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_formula(text: str) -> Formula:
    """Parse canonical formula text.

    Raises ParseError (with a byte offset into the UTF-8 encoding of the
    input and the set of expected tokens) on malformed text, and
    ArityError when one predicate name occurs with two argument counts.
    """
    formula = _Parser(text, _CANONICAL).parse()
    _check_arities(formula)
    return formula


def _check_arities(formula: Formula):
    seen: Dict[str, int] = {}
    for pred in predicate_symbols(formula):
        prev = seen.setdefault(pred.name, pred.arity)
        if prev != pred.arity:
            raise ArityError(pred.name, (prev, pred.arity))


def _render(f: Formula, syntax: _Syntax, need: int = 0) -> str:
    cls = type(f)
    if cls is Atom:
        opening, separator, closing = syntax.atom
        names = separator.join([v.name for v in f.args])
        return f.pred.name + opening + names + closing
    level = _LEVEL.get(cls)
    if level is None:
        raise TypeError("not a formula: %r" % (f,))
    if cls is Not:
        text = syntax.spell[Not] + _render(f.child, syntax, level)
    elif cls is Forall or cls is Exists:
        text = "%s%s. %s" % (
            syntax.spell[cls],
            " ".join(v.name for v in f.vars),
            _render(f.body, syntax, level),
        )
    else:
        text = (
            _render(f.left, syntax, level + 1)
            + syntax.spell[cls]
            + _render(f.right, syntax, level)
        )
    if level < need:
        return "(%s)" % text
    return text


def render_formula(f: Formula) -> str:
    """Deterministic canonical text; parse_formula inverts it exactly."""
    return _render(f, _CANONICAL)


# ---------------------------------------------------------------------------
# Analysis helpers

_CLOSED: FrozenSet[Variable] = frozenset()


@_kept("_free")
def free_variables(f: Formula) -> FrozenSet[Variable]:
    """The variables of `f` that no quantifier binds."""
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Not):
        return free_variables(f.child)
    if isinstance(f, (And, Or, Implies)):
        # Sides that agree share one set, as closed formulas share _CLOSED.
        left, right = free_variables(f.left), free_variables(f.right)
        if right <= left:
            return left
        return right if left <= right else left | right
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body).difference(f.vars) or _CLOSED
    raise TypeError("not a formula: %r" % (f,))


@_kept("_quantified")
def has_quantifier(f: Formula) -> bool:
    if isinstance(f, (Forall, Exists)):
        return True
    if isinstance(f, Not):
        return has_quantifier(f.child)
    if isinstance(f, (And, Or, Implies)):
        return has_quantifier(f.left) or has_quantifier(f.right)
    if isinstance(f, Atom):
        return False
    raise TypeError("not a formula: %r" % (f,))


@_kept("_predicates")
def predicate_symbols(f: Formula) -> Tuple[PredicateSymbol, ...]:
    """The predicate symbols of `f`'s atoms, left to right, each symbol
    once.  A name used with two arities appears once per arity."""
    if isinstance(f, Atom):
        return (f.pred,)
    if isinstance(f, Not):
        return predicate_symbols(f.child)
    if isinstance(f, (And, Or, Implies)):
        left = predicate_symbols(f.left)
        more = tuple(p for p in predicate_symbols(f.right) if p not in left)
        return left + more if more else left
    if isinstance(f, (Forall, Exists)):
        return predicate_symbols(f.body)
    raise TypeError("not a formula: %r" % (f,))


def validate_signature(formulas: Sequence[Formula]) -> Tuple[PredicateSymbol, ...]:
    """Merge the predicates of several formulas into one signature.

    Predicates keep first-appearance order, each name once.  A name seen
    with two arities raises ArityConflict carrying the formula indices
    involved.
    """
    order: List[PredicateSymbol] = []
    arities: Dict[str, int] = {}
    locations: Dict[str, List[int]] = {}
    for idx, formula in enumerate(formulas):
        for pred in predicate_symbols(formula):
            name = pred.name
            locs = locations.setdefault(name, [])
            if idx not in locs:
                locs.append(idx)
            prev = arities.get(name)
            if prev is None:
                arities[name] = pred.arity
                order.append(pred)
            elif prev != pred.arity:
                raise ArityConflict(name, (prev, pred.arity), locs)
    return tuple(order)


def sanitize_name(raw: str, taken: Iterable[str] = ()) -> str:
    """Coerce arbitrary text to the identifier charset.

    Runs of non-identifier characters become a single underscore; a name
    that would not start with a letter gets a "P" prefix.  Names already
    in `taken` are disambiguated with _2, _3, ... suffixes.
    """
    cleaned = re.sub(r"[^A-Za-z0-9_]+", "_", raw.strip()).strip("_")
    if not cleaned:
        cleaned = "P"
    if not cleaned[0].isalpha():
        cleaned = "P_" + cleaned
    taken = set(taken)
    if cleaned not in taken:
        return cleaned
    n = 2
    while "%s_%d" % (cleaned, n) in taken:
        n += 1
    return "%s_%d" % (cleaned, n)

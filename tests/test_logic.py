"""Formula layer: parser, renderer, signatures, naming."""

import dataclasses
import time

import pytest
from hypothesis import given, settings

from helpers import formula_strategy, make_formulas, walked_atoms
from verifine.logic import (
    _CANONICAL,
    _INNER,
    MAX_NESTING,
    PARSE_CACHE_SIZE,
    And,
    ArityConflict,
    ArityError,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    PredicateSymbol,
    Variable,
    _Parser,
    _render,
    free_variables,
    has_quantifier,
    parse_formula,
    predicate_symbols,
    render_formula,
    sanitize_name,
    validate_signature,
)
from verifine.theory import TheoryParseError, isabelle_formula, parse_inner_formula


def atom(name, *args):
    return Atom(PredicateSymbol(name, len(args)), tuple(Variable(a) for a in args))


class TestParsing:
    def test_unary_atom(self):
        assert parse_formula("Lady(x)") == atom("Lady", "x")

    def test_binary_atom(self):
        assert parse_formula("Agent(e, x)") == atom("Agent", "e", "x")

    def test_ascii_and_unicode_forms_agree(self):
        pairs = [
            ("forall x. P(x)", "∀x. P(x)"),
            ("exists x. P(x)", "∃x. P(x)"),
            ("P(x) & Q(x)", "P(x) ∧ Q(x)"),
            ("P(x) | Q(x)", "P(x) ∨ Q(x)"),
            ("P(x) -> Q(x)", "P(x) → Q(x)"),
            ("~P(x)", "¬P(x)"),
        ]
        for ascii_form, unicode_form in pairs:
            assert parse_formula(ascii_form) == parse_formula(unicode_form)

    def test_precedence_not_over_and_over_or_over_implies(self):
        f = parse_formula("~P(x) & Q(x) | R(x) -> S(x)")
        expected = Implies(
            Or(And(Not(atom("P", "x")), atom("Q", "x")), atom("R", "x")),
            atom("S", "x"),
        )
        assert f == expected

    def test_binary_connectives_associate_right(self):
        assert parse_formula("P(x) -> Q(x) -> R(x)") == Implies(
            atom("P", "x"), Implies(atom("Q", "x"), atom("R", "x"))
        )
        assert parse_formula("P(x) & Q(x) & R(x)") == And(
            atom("P", "x"), And(atom("Q", "x"), atom("R", "x"))
        )
        assert parse_formula("P(x) | Q(x) | R(x)") == Or(
            atom("P", "x"), Or(atom("Q", "x"), atom("R", "x"))
        )

    def test_quantifier_body_extends_right(self):
        f = parse_formula("forall x. P(x) -> Q(x)")
        assert f == Forall(
            (Variable("x"),), Implies(atom("P", "x"), atom("Q", "x"))
        )

    def test_multi_variable_prefix_with_and_without_commas(self):
        with_commas = parse_formula("forall x, y. Agent(x, y)")
        without = parse_formula("forall x y. Agent(x, y)")
        assert with_commas == without
        assert with_commas.vars == (Variable("x"), Variable("y"))

    def test_parenthesised_grouping(self):
        f = parse_formula("(P(x) -> Q(x)) -> R(x)")
        assert f == Implies(Implies(atom("P", "x"), atom("Q", "x")), atom("R", "x"))

    def test_mixed_quantifier_nesting_is_preserved(self):
        f = parse_formula("forall x. exists y. Agent(x, y)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Exists)

    def test_same_kind_nesting_flattens(self):
        nested = parse_formula("forall x. forall y. Agent(x, y)")
        flat = parse_formula("forall x y. Agent(x, y)")
        assert nested == flat
        assert render_formula(nested) == "∀x y. Agent(x, y)"

    def test_double_negation(self):
        assert parse_formula("~~P(x)") == Not(Not(atom("P", "x")))


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as info:
            parse_formula("P(x) Q(x)")
        assert "trailing" in str(info.value)

    def test_missing_close_paren_reports_expected(self):
        with pytest.raises(ParseError) as info:
            parse_formula("P(x")
        assert info.value.expected

    def test_duplicate_prefix_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("forall x x. P(x)")
        with pytest.raises(ParseError):
            parse_formula("forall x. forall x. P(x)")

    def test_offset_counts_bytes_not_characters(self):
        with pytest.raises(ParseError) as info:
            parse_formula("∀x. $P(x)")
        # "∀" is 3 bytes in UTF-8, then "x. " -> the "$" begins at byte 6.
        assert info.value.offset == 6

    def test_bare_identifier_is_not_a_formula(self):
        with pytest.raises(ParseError):
            parse_formula("P")

    # Error text reaches refinement prompts and so transcript keys: the
    # message, byte offset and expected set are pinned exactly.
    @pytest.mark.parametrize(
        "text, message, offset, expected",
        [
            ("", "expected a formula", 0,
             ("predicate atom", "quantifier", "'('", "'¬'")),
            ("P(x) ∧", "expected a formula", 8,
             ("predicate atom", "quantifier", "'('", "'¬'")),
            ("P(x) Q(x)", "trailing input after formula", 5, ("end of input",)),
            ("P(x y)", "expected ')'", 4, ("')'",)),
            ("P", "expected '('", 1, ("'('",)),
            ("P(x,)", "expected argument name", 4, ("argument name",)),
            ("∀x P(x)", "expected '.'", 6, ("'.'",)),
            ("forall . P(x)", "expected bound variable", 7, ("variable name",)),
            ("P(x) → Q(x) - R(x)", "unexpected character '-'", 14, ()),
            ("P(x) ∧ (∀y. ∀y. Q(y))",
             "duplicate variable in quantifier prefix: ['y', 'y']", 10, ()),
        ],
    )
    def test_error_message_offset_and_expected_are_pinned(
        self, text, message, offset, expected
    ):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert info.value.message == message
        assert info.value.offset == offset
        assert info.value.expected == expected

    # Deep nesting exhausts the recursive-descent parser's stack; that is
    # still malformed input, reported like any other.
    @pytest.mark.parametrize(
        "text",
        ["(" * 200 + "P(x)" + ")" * 200, "¬" * 2000 + "P(x)"],
        ids=["parentheses", "negations"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_formula(text)

    def test_arity_conflict_inside_one_formula(self):
        with pytest.raises(ArityError) as info:
            parse_formula("P(x) & P(x, y)")
        assert info.value.name == "P"
        assert info.value.arities == (1, 2)


def _quantifiers(n, forall, exists, body):
    # Alternating kinds, since a same-kind prefix flattens into one binder.
    return "".join(
        "%s%s. " % (exists if i % 2 else forall, "x%d" % i) for i in range(n)
    ) + body


# Each spelling nests `n` levels: (canonical text, inner text).
NESTINGS = {
    "parentheses": lambda n: ("(" * n + "P(x)" + ")" * n, "(" * n + "P x" + ")" * n),
    "negations": lambda n: ("¬" * n + "P(x)", "\\<not> " * n + "P x"),
    "conjunctions": lambda n: (
        " ∧ ".join(["P(x)"] * (n + 1)),
        " \\<and> ".join(["P x"] * (n + 1)),
    ),
    "quantifiers": lambda n: (
        _quantifiers(n, "∀", "∃", "P(x0)"),
        _quantifiers(n, "\\<forall>", "\\<exists>", "P x0"),
    ),
}


class TestNestingBound:
    @pytest.mark.parametrize("kind", sorted(NESTINGS))
    def test_formula_at_the_bound_survives_every_walker(self, kind):
        canonical, inner = NESTINGS[kind](MAX_NESTING)
        f = parse_formula(canonical)
        again = parse_inner_formula(inner)
        assert hash(f) == hash(again)
        assert f == again
        assert parse_formula(render_formula(f)) == f
        assert parse_inner_formula(isabelle_formula(f)) == f
        assert free_variables(f) <= {Variable("x")}

    @pytest.mark.parametrize("kind", sorted(NESTINGS))
    def test_one_level_past_the_bound_is_a_parse_error(self, kind):
        canonical, inner = NESTINGS[kind](MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_formula(canonical)
        with pytest.raises(TheoryParseError, match="nested too deeply") as info:
            parse_inner_formula(inner)
        assert isinstance(info.value.__cause__, ParseError)


class TestConstruction:
    def test_atom_argument_count_must_match_arity(self):
        with pytest.raises(ArityError):
            Atom(PredicateSymbol("P", 2), (Variable("x"),))

    def test_predicate_arity_must_be_positive(self):
        with pytest.raises(ValueError):
            PredicateSymbol("P", 0)

    def test_variable_name_charset(self):
        with pytest.raises(ValueError):
            Variable("2x")
        with pytest.raises(ValueError):
            Variable("")

    def test_constructed_nesting_flattens(self):
        inner = Forall((Variable("y"),), atom("Agent", "x", "y"))
        outer = Forall((Variable("x"),), inner)
        assert outer.vars == (Variable("x"), Variable("y"))
        assert outer.body == atom("Agent", "x", "y")

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            Forall((), atom("P", "x"))

    def test_duplicate_merged_prefix_rejected(self):
        inner = Exists((Variable("x"),), atom("P", "x"))
        with pytest.raises(ValueError):
            Exists((Variable("x"),), inner)


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "P(x)",
            "¬P(x)",
            "P(x) ∧ Q(y)",
            "P(x) ∨ Q(y)",
            "P(x) → Q(y)",
            "P(x) ∧ Q(y) ∧ R(z)",
            "P(x) ∧ Q(y) ∨ R(z)",
            "(P(x) ∨ Q(y)) ∧ R(z)",
            "(P(x) → Q(y)) → R(z)",
            "¬(P(x) ∧ Q(y))",
            "∀x. P(x)",
            "∀x y. Agent(x, y)",
            "∃e. Agent(e, x) ∧ Patient(e, y)",
            "∀x. P(x) → (∃y. Agent(x, y))",
            "(∀x. P(x)) ∧ Q(y)",
        ],
    )
    def test_canonical_text_is_stable(self, text):
        assert render_formula(parse_formula(text)) == text

    def test_quantified_operand_gets_parentheses(self):
        f = And(Forall((Variable("x"),), atom("P", "x")), atom("Q", "y"))
        assert render_formula(f) == "(∀x. P(x)) ∧ Q(y)"

    def test_left_nested_connectives_get_parentheses(self):
        f = And(And(atom("P", "x"), atom("Q", "x")), atom("R", "x"))
        assert render_formula(f) == "(P(x) ∧ Q(x)) ∧ R(x)"

    def test_str_matches_render(self):
        f = parse_formula("forall x. P(x) -> Q(x)")
        assert str(f) == render_formula(f)


class TestAnalysis:
    def test_free_variables(self):
        f = parse_formula("forall x. Agent(x, y) -> P(z)")
        assert free_variables(f) == {Variable("y"), Variable("z")}

    def test_has_quantifier(self):
        assert has_quantifier(parse_formula("~(exists x. P(x))"))
        assert not has_quantifier(parse_formula("P(x) & Q(y)"))

    def test_signature_first_appearance_order(self):
        predicates = validate_signature(
            [parse_formula("B(x) & A(x)"), parse_formula("C(x) & A(x)")]
        )
        assert predicates == (
            PredicateSymbol("B", 1),
            PredicateSymbol("A", 1),
            PredicateSymbol("C", 1),
        )

    def test_signature_conflict_reports_formula_indices(self):
        with pytest.raises(ArityConflict) as info:
            validate_signature(
                [parse_formula("P(x)"), parse_formula("Q(x)"), parse_formula("P(x, y)")]
            )
        assert info.value.name == "P"
        assert info.value.arities == (1, 2)
        assert 0 in info.value.locations and 2 in info.value.locations


class TestSanitizeName:
    def test_plain_name_passes_through(self):
        assert sanitize_name("Woman") == "Woman"

    def test_punctuation_runs_collapse(self):
        assert sanitize_name("photo  album!") == "photo_album"

    def test_leading_digit_gets_prefix(self):
        assert sanitize_name("3_dogs") == "P_3_dogs"

    def test_empty_input_gets_placeholder(self):
        assert sanitize_name("--") == "P"

    def test_collisions_take_numeric_suffixes(self):
        taken = {"Dog", "Dog_2"}
        assert sanitize_name("Dog", taken) == "Dog_3"


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(formula_strategy())
    def test_parse_inverts_render(self, f):
        assert parse_formula(render_formula(f)) == f

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy())
    def test_render_is_stable_under_reparse(self, f):
        once = render_formula(f)
        assert render_formula(parse_formula(once)) == once

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy())
    def test_free_variables_subset_of_argument_variables(self, f):
        all_args = set()
        for a in walked_atoms(f):
            all_args.update(a.args)
        assert free_variables(f) <= all_args

    def test_thousand_formula_round_trip_under_five_seconds(self):
        formulas = make_formulas(1000, seed=20240814)
        started = time.monotonic()
        for f in formulas:
            assert parse_formula(render_formula(f)) == f
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, "round trip took %.2fs" % elapsed


class TestSharedParses:
    @settings(max_examples=200, deadline=None)
    @given(formula_strategy())
    def test_memoised_parse_equals_a_fresh_parse(self, f):
        for parse, text, syntax in (
            (parse_formula, render_formula(f), _CANONICAL),
            (parse_inner_formula, isabelle_formula(f), _INNER),
        ):
            first = parse(text)
            assert first == _Parser(text, syntax).parse() == f
            # The second caller gets the same tree, not a copy.
            assert parse(text) is first

    @pytest.mark.parametrize(
        "parse,text,error",
        [
            (parse_formula, "P(x) ∧", ParseError),
            (parse_formula, "P(x) ∧ P(x, y)", ArityError),
            (parse_inner_formula, "P x \\<and>", TheoryParseError),
            (parse_inner_formula, "P", TheoryParseError),
        ],
    )
    def test_rejected_text_raises_on_every_call(self, parse, text, error):
        kept = parse.cache_info().currsize
        messages = []
        for _ in range(3):
            with pytest.raises(error) as info:
                parse(text)
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert parse.cache_info().currsize == kept

    def test_both_memos_are_bounded(self):
        assert 1000 <= PARSE_CACHE_SIZE < 10000
        for parse in (parse_formula, parse_inner_formula):
            assert parse.cache_parameters()["maxsize"] == PARSE_CACHE_SIZE


def rebuild(f):
    """A structurally equal tree sharing no node or symbol with `f`."""
    if isinstance(f, Atom):
        pred = PredicateSymbol(f.pred.name, f.pred.arity)
        return Atom(pred, tuple(Variable(v.name) for v in f.args))
    if isinstance(f, Not):
        return Not(rebuild(f.child))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(rebuild(f.left), rebuild(f.right))
    return type(f)(tuple(Variable(v.name) for v in f.vars), rebuild(f.body))


def walked_free_variables(f):
    if isinstance(f, Atom):
        return set(f.args)
    if isinstance(f, Not):
        return walked_free_variables(f.child)
    if isinstance(f, (And, Or, Implies)):
        return walked_free_variables(f.left) | walked_free_variables(f.right)
    return walked_free_variables(f.body) - set(f.vars)


def walked_quantifier(f):
    if isinstance(f, (Forall, Exists)):
        return True
    if isinstance(f, Not):
        return walked_quantifier(f.child)
    if isinstance(f, (And, Or, Implies)):
        return walked_quantifier(f.left) or walked_quantifier(f.right)
    return False


class TestKeptValues:
    @settings(max_examples=200, deadline=None)
    @given(formula_strategy())
    def test_kept_values_equal_a_fresh_computation(self, f):
        pristine = repr(f)
        for _ in range(2):  # the first ask works a value out, the second reads it
            fresh = rebuild(f)
            assert free_variables(f) == free_variables(fresh) == walked_free_variables(fresh)
            atoms = [a.pred for a in walked_atoms(fresh)]
            assert predicate_symbols(f) == predicate_symbols(fresh) == tuple(dict.fromkeys(atoms))
            assert has_quantifier(f) == has_quantifier(fresh) == walked_quantifier(fresh)
            assert isabelle_formula(f) == isabelle_formula(fresh) == _render(fresh, _INNER)
            assert render_formula(f) == render_formula(fresh) == _render(fresh, _CANONICAL)
            assert f == fresh and hash(f) == hash(fresh)
        # The kept values are no fields: repr and equality see nothing new.
        assert repr(f) == repr(rebuild(f)) == pristine
        assert not {field.name for field in dataclasses.fields(f)} & set(Formula.__slots__)

    @pytest.mark.parametrize("kind", sorted(NESTINGS))
    def test_values_at_the_bound_are_worked_out_without_overflow(self, kind):
        canonical, inner = NESTINGS[kind](MAX_NESTING)
        # Fresh trees: a shared parse may already keep its values.
        f = _Parser(canonical, _CANONICAL).parse()
        again = _Parser(inner, _INNER).parse()
        assert hash(f) == hash(again)
        assert free_variables(f) <= {Variable("x")}
        assert predicate_symbols(f) == (PredicateSymbol("P", 1),)
        assert has_quantifier(f) == (kind == "quantifiers")
        assert isabelle_formula(f) == isabelle_formula(parse_inner_formula(inner))
        assert parse_inner_formula(isabelle_formula(again)) == f

    def test_a_parse_shares_its_symbols(self):
        f = _Parser("∀x. P(x) ∧ Q(x, y) → P(y) ∧ Q(y, x)", _CANONICAL).parse()
        atoms = walked_atoms(f)
        assert atoms[0].pred is atoms[2].pred and atoms[1].pred is atoms[3].pred
        assert atoms[0].args[0] is atoms[1].args[0] is atoms[3].args[1]
        assert f.vars[0] is atoms[0].args[0]
